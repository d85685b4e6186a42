// Package allowstale exercises the allowstale rule: every
// //hpnlint:allow directive must still suppress a finding. The want
// comments ride inside the directives' justification text, which the
// directive parser strips at the first "--".
package allowstale

import "time"

// A load-bearing allow: it suppresses a real wallclock finding, so it is
// used and NOT stale.
var started = time.Now() //hpnlint:allow wallclock -- fixture timing, deliberately allowed

// A stale allow: nothing on this line ever triggers maporder.
var one = 1 //hpnlint:allow maporder -- stale by construction // want:allowstale "no longer suppresses"

// A stale standalone-form allow above an innocuous line.
//
//hpnlint:allow floatacc -- stale standalone // want:allowstale "no longer suppresses"
var two = 2

// An allow naming a rule that does not exist is always stale.
var three = 3 //hpnlint:allow nosuchrule -- typo never matches // want:allowstale "unknown rule"
