//go:build !hpncheck

package memo

import "hpn/internal/netsim"

// checkFold is the hpncheck build's check of an applied summary (see
// check_on.go); this build trusts the summary.
func checkFold(netsim.Summarizer, [][]netsim.Event, any) {}
