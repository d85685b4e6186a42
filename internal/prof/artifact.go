package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
)

// PhaseStat is one phase's merged accumulators: the row format of the
// prof.json artifact. Count is deterministic (a pure function of the
// simulated run); WallNS and Allocs are host measurements and are
// nondeterministic by nature — which is why this artifact lives outside the
// golden byte-identical set.
type PhaseStat struct {
	Name   string `json:"name"`
	Help   string `json:"help,omitempty"`
	Count  int64  `json:"count"`
	WallNS int64  `json:"wall_ns"`
	Allocs int64  `json:"allocs,omitempty"`
}

// Profile is the prof.json document: one run's phase breakdown plus the
// host parallelism it ran under (ns/op of the parallel phases depends on
// GOMAXPROCS, so the report surfaces it).
type Profile struct {
	GoMaxProcs int         `json:"gomaxprocs"`
	Phases     []PhaseStat `json:"phases"`
}

// Profile snapshots the profiler into an exportable document. Nil-safe.
func (p *Profiler) Profile() *Profile {
	return &Profile{GoMaxProcs: runtime.GOMAXPROCS(0), Phases: p.Snapshot()}
}

// WriteJSON writes the Profile document (see ParseProfile).
func (p *Profiler) WriteJSON(w io.Writer) error {
	return writeProfileJSON(w, p.Profile())
}

// writeProfileJSON encodes one prof.json document.
func writeProfileJSON(w io.Writer, p *Profile) error {
	buf, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ParseProfile reads a prof.json document written by WriteJSON. It
// rejects anything WriteJSON cannot produce: data after the document, a
// profile without phases, an empty or repeated phase name, and a negative
// count, wall time or allocation total.
func ParseProfile(r io.Reader) (*Profile, error) {
	var prof Profile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&prof); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the profile document")
	}
	if len(prof.Phases) == 0 {
		return nil, fmt.Errorf("profile has no phases")
	}
	seen := make(map[string]bool, len(prof.Phases))
	for i, st := range prof.Phases {
		switch {
		case st.Name == "":
			return nil, fmt.Errorf("phase %d: empty name", i)
		case seen[st.Name]:
			return nil, fmt.Errorf("phase %q: duplicate name", st.Name)
		case st.Count < 0 || st.WallNS < 0 || st.Allocs < 0:
			return nil, fmt.Errorf("phase %q: negative count, wall or allocs", st.Name)
		}
		seen[st.Name] = true
	}
	return &prof, nil
}
