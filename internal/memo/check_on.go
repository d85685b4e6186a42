//go:build hpncheck

package memo

import (
	"fmt"
	"reflect"

	"hpn/internal/netsim"
)

// summaryVerifier is a Summarizer that can re-derive a summary from its
// window half and compare the two bitwise without allocating, naming what
// differs ("" when nothing does).
type summaryVerifier interface {
	VerifySummary(evs [][]netsim.Event, sum any) string
}

// checkFold re-derives a summary s just applied from the half evs it was
// taken of, and panics, naming s's type and what differs, if the two do not
// match. Summaries do not depend on the shift a half carries, so the check
// holds after any replay. A Summarizer without VerifySummary is re-derived
// through Summarize and compared with reflect.DeepEqual.
func checkFold(s netsim.Summarizer, evs [][]netsim.Event, sum any) {
	var diff string
	if v, ok := s.(summaryVerifier); ok {
		diff = v.VerifySummary(evs, sum)
	} else if again := s.Summarize(evs); !reflect.DeepEqual(again, sum) {
		diff = fmt.Sprintf("re-derived %+v, applied %+v", again, sum)
	}
	if diff != "" {
		panic(fmt.Sprintf("memo: %T folded a window half its summary does not match: %s", s, diff))
	}
}
