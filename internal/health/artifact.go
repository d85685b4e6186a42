package health

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hpn/internal/artifact"
	"hpn/internal/sim"
)

// The merged timeline TSV: incidents and iteration reports share one
// chronologically sorted table, distinguished by the row column. Unused
// fields carry "-" (strings), -1 (ints) or 0 (floats).
const tsvHeader = "row\tid\tkind\tsubject\tstart_ns\tend_ns\topen\tevents\tpeak\tdetail\titer\tcomm_s\tbaseline_s\tdelta_frac\tregressed\treroutes\tcauses"

// WriteTSV streams the merged incident + iteration timeline, ordered by
// start time, incidents before iterations at the same instant, then by
// incident ID. Reports are stored in that order (each starts where the
// previous one ended), so the writer merges them, as it renders them, with
// the incidents sorted by start. Deterministic: same-seed runs produce
// byte-identical output.
func (m *Monitor) WriteTSV(w io.Writer) error {
	bw := artifact.NewWriter(w)
	bw.WriteString(tsvHeader)
	bw.WriteByte('\n')
	incs := make([]*Incident, len(m.incidents))
	for i := range m.incidents {
		incs[i] = &m.incidents[i]
	}
	slices.SortStableFunc(incs, func(a, b *Incident) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.ID, b.ID))
	})
	var b []byte
	m.eachReport(func(it *IterationReport) {
		for ; len(incs) > 0 && incs[0].Start <= it.Start; incs = incs[1:] {
			b = appendIncidentTSV(b[:0], incs[0])
			bw.Write(b)
		}
		b = appendIterationTSV(b[:0], it)
		bw.Write(b)
	})
	for _, inc := range incs {
		b = appendIncidentTSV(b[:0], inc)
		bw.Write(b)
	}
	return bw.Flush()
}

func appendIncidentTSV(b []byte, inc *Incident) []byte {
	end := int64(inc.End)
	if inc.Open {
		end = -1
	}
	b = append(b, "incident\t"...)
	b = strconv.AppendInt(b, int64(inc.ID), 10)
	b = append(b, '\t')
	b = append(b, inc.Kind...)
	b = append(b, '\t')
	b = append(b, inc.Subject...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(inc.Start), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, end, 10)
	b = append(b, '\t')
	b = strconv.AppendBool(b, inc.Open)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(inc.Events), 10)
	b = append(b, '\t')
	b = artifact.AppendFloat(b, inc.Peak)
	b = append(b, '\t')
	b = append(b, inc.Detail...)
	return append(b, "\t-1\t0\t0\t0\tfalse\t-1\t-\n"...)
}

func appendIterationTSV(b []byte, it *IterationReport) []byte {
	b = append(b, "iteration\t-1\t-\t-\t"...)
	b = strconv.AppendInt(b, int64(it.Start), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(it.End), 10)
	b = append(b, "\tfalse\t-1\t0\t-\t"...)
	b = strconv.AppendInt(b, int64(it.Iter), 10)
	b = append(b, '\t')
	b = artifact.AppendFloat(b, it.CommS)
	b = append(b, '\t')
	b = artifact.AppendFloat(b, it.BaselineS)
	b = append(b, '\t')
	b = artifact.AppendFloat(b, it.DeltaFrac)
	b = append(b, '\t')
	b = strconv.AppendBool(b, it.Regressed)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(it.Reroutes), 10)
	b = append(b, '\t')
	b = appendCauses(b, it.Causes)
	return append(b, '\n')
}

// ParseTSV reads a timeline written by WriteTSV back into incidents (by ID
// order) and iteration reports (by iteration order) — the hpndoctor input
// path.
func ParseTSV(r io.Reader) ([]Incident, []IterationReport, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var incs []Incident
	var iters []IterationReport
	first := true
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if first {
			first = false
			if line != tsvHeader {
				return nil, nil, fmt.Errorf("health: unrecognized timeline header %q", line)
			}
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 17 {
			return nil, nil, fmt.Errorf("health: timeline row has %d fields, want 17", len(f))
		}
		switch f[0] {
		case "incident":
			var inc Incident
			var start, end int64
			var err error
			if inc.ID, err = strconv.Atoi(f[1]); err != nil {
				return nil, nil, fmt.Errorf("health: bad incident id %q", f[1])
			}
			inc.Kind, inc.Subject, inc.Detail = f[2], f[3], f[9]
			if start, err = strconv.ParseInt(f[4], 10, 64); err != nil {
				return nil, nil, fmt.Errorf("health: bad start %q", f[4])
			}
			if end, err = strconv.ParseInt(f[5], 10, 64); err != nil {
				return nil, nil, fmt.Errorf("health: bad end %q", f[5])
			}
			inc.Start, inc.End = sim.Time(start), sim.Time(end)
			inc.Open = f[6] == "true"
			if inc.Open {
				inc.End = 0
			}
			if inc.Events, err = strconv.Atoi(f[7]); err != nil {
				return nil, nil, fmt.Errorf("health: bad events %q", f[7])
			}
			if inc.Peak, err = strconv.ParseFloat(f[8], 64); err != nil {
				return nil, nil, fmt.Errorf("health: bad peak %q", f[8])
			}
			incs = append(incs, inc)
		case "iteration":
			var it IterationReport
			var start, end int64
			var err error
			if start, err = strconv.ParseInt(f[4], 10, 64); err != nil {
				return nil, nil, fmt.Errorf("health: bad start %q", f[4])
			}
			if end, err = strconv.ParseInt(f[5], 10, 64); err != nil {
				return nil, nil, fmt.Errorf("health: bad end %q", f[5])
			}
			it.Start, it.End = sim.Time(start), sim.Time(end)
			if it.Iter, err = strconv.Atoi(f[10]); err != nil {
				return nil, nil, fmt.Errorf("health: bad iter %q", f[10])
			}
			if it.CommS, err = strconv.ParseFloat(f[11], 64); err != nil {
				return nil, nil, fmt.Errorf("health: bad comm_s %q", f[11])
			}
			if it.BaselineS, err = strconv.ParseFloat(f[12], 64); err != nil {
				return nil, nil, fmt.Errorf("health: bad baseline_s %q", f[12])
			}
			if it.DeltaFrac, err = strconv.ParseFloat(f[13], 64); err != nil {
				return nil, nil, fmt.Errorf("health: bad delta_frac %q", f[13])
			}
			it.Regressed = f[14] == "true"
			if it.Reroutes, err = strconv.Atoi(f[15]); err != nil {
				return nil, nil, fmt.Errorf("health: bad reroutes %q", f[15])
			}
			if it.Causes, err = parseCauses(f[16]); err != nil {
				return nil, nil, err
			}
			iters = append(iters, it)
		default:
			return nil, nil, fmt.Errorf("health: unknown timeline row kind %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	sort.SliceStable(incs, func(i, j int) bool { return incs[i].ID < incs[j].ID })
	sort.SliceStable(iters, func(i, j int) bool { return iters[i].Iter < iters[j].Iter })
	return incs, iters, nil
}

// WriteJSON renders the same data as one hand-built (deterministic,
// stdlib-marshal-free) JSON document with incidents, iterations and a
// summary block.
func (m *Monitor) WriteJSON(w io.Writer) error {
	bw := artifact.NewWriter(w)
	bw.WriteString("{\n\"incidents\": [")
	var b []byte
	for i := range m.incidents {
		b = b[:0]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendIncidentJSON(b, &m.incidents[i])
		bw.Write(b)
	}
	bw.WriteString("\n],\n\"iterations\": [")
	sep := false
	m.eachReport(func(it *IterationReport) {
		b = b[:0]
		if sep {
			b = append(b, ',')
		}
		sep = true
		b = appendIterationJSON(b, it)
		bw.Write(b)
	})
	s := m.Summary()
	b = append(b[:0], "\n],\n\"summary\": {"...)
	for i, v := range [...]int{s.Incidents, s.Open, s.Flap, s.Stall, s.Polarization, s.Throughput, s.Iterations, s.Regressed, s.Attributed} {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(b, '"')
		b = append(b, summaryKeys[i]...)
		b = append(b, "\": "...)
		b = strconv.AppendInt(b, int64(v), 10)
	}
	bw.Write(append(b, "}\n}\n"...))
	return bw.Flush()
}

// summaryKeys name the JSON summary block's fields, in order.
var summaryKeys = [...]string{"incidents", "open", "flap_storm", "stall", "polarization", "degraded_throughput", "iterations", "regressed", "attributed"}

func appendIncidentJSON(b []byte, inc *Incident) []byte {
	end := int64(inc.End)
	if inc.Open {
		end = -1
	}
	b = append(b, "\n{\"id\": "...)
	b = strconv.AppendInt(b, int64(inc.ID), 10)
	b = append(b, ", \"kind\": "...)
	b = artifact.AppendJSONString(b, inc.Kind)
	b = append(b, ", \"subject\": "...)
	b = artifact.AppendJSONString(b, inc.Subject)
	b = append(b, ", \"start_ns\": "...)
	b = strconv.AppendInt(b, int64(inc.Start), 10)
	b = append(b, ", \"end_ns\": "...)
	b = strconv.AppendInt(b, end, 10)
	b = append(b, ", \"open\": "...)
	b = strconv.AppendBool(b, inc.Open)
	b = append(b, ", \"events\": "...)
	b = strconv.AppendInt(b, int64(inc.Events), 10)
	b = append(b, ", \"peak\": "...)
	b = artifact.AppendFloat(b, inc.Peak)
	b = append(b, ", \"detail\": "...)
	b = artifact.AppendJSONString(b, inc.Detail)
	return append(b, '}')
}

func appendIterationJSON(b []byte, it *IterationReport) []byte {
	b = append(b, "\n{\"iter\": "...)
	b = strconv.AppendInt(b, int64(it.Iter), 10)
	b = append(b, ", \"start_ns\": "...)
	b = strconv.AppendInt(b, int64(it.Start), 10)
	b = append(b, ", \"end_ns\": "...)
	b = strconv.AppendInt(b, int64(it.End), 10)
	b = append(b, ", \"comm_s\": "...)
	b = artifact.AppendFloat(b, it.CommS)
	b = append(b, ", \"baseline_s\": "...)
	b = artifact.AppendFloat(b, it.BaselineS)
	b = append(b, ", \"delta_frac\": "...)
	b = artifact.AppendFloat(b, it.DeltaFrac)
	b = append(b, ", \"regressed\": "...)
	b = strconv.AppendBool(b, it.Regressed)
	b = append(b, ", \"reroutes\": "...)
	b = strconv.AppendInt(b, int64(it.Reroutes), 10)
	b = append(b, ", \"causes\": ["...)
	for j, id := range it.Causes {
		if j > 0 {
			b = append(b, ", "...)
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, "]}"...)
}

// Summary aggregates a timeline into the verdict hpndoctor prints and
// tests assert on.
type Summary struct {
	Incidents, Open                       int
	Flap, Stall, Polarization, Throughput int
	Iterations, Regressed                 int
	// Attributed counts regressed iterations with at least one overlapping
	// incident.
	Attributed int
}

// Summarize folds incidents and iteration reports into a Summary.
func Summarize(incs []Incident, iters []IterationReport) Summary {
	s := summarizeIncidents(incs)
	for i := range iters {
		s.addIteration(&iters[i])
	}
	return s
}

func summarizeIncidents(incs []Incident) Summary {
	var s Summary
	s.Incidents = len(incs)
	for i := range incs {
		if incs[i].Open {
			s.Open++
		}
		switch incs[i].Kind {
		case KindFlap:
			s.Flap++
		case KindStall:
			s.Stall++
		case KindPolarization:
			s.Polarization++
		case KindThroughput:
			s.Throughput++
		}
	}
	return s
}

func (s *Summary) addIteration(it *IterationReport) {
	s.Iterations++
	if it.Regressed {
		s.Regressed++
		if len(it.Causes) > 0 {
			s.Attributed++
		}
	}
}

// Summary exit codes, following the hpnview convention (0 ok, 1 I/O,
// 2 usage, 3 verdict).
const (
	ExitHealthy = 0
	// ExitIncidents: fabric incidents were detected (whether or not the
	// workload regressed).
	ExitIncidents = 3
	// ExitRegression: iterations regressed with no fabric incident to
	// blame — the fabric looks clean, look at the workload.
	ExitRegression = 4
)

// ExitCode maps the summary onto the hpndoctor process exit code.
func (s Summary) ExitCode() int {
	switch {
	case s.Incidents > 0:
		return ExitIncidents
	case s.Regressed > 0:
		return ExitRegression
	default:
		return ExitHealthy
	}
}

// Verdict renders the one-line summary verdict.
func (s Summary) Verdict() string {
	if s.ExitCode() == ExitHealthy {
		return fmt.Sprintf("healthy: no incidents over %d iterations", s.Iterations)
	}
	var parts []string
	if s.Flap > 0 {
		parts = append(parts, fmt.Sprintf("%d flap-storm", s.Flap))
	}
	if s.Stall > 0 {
		parts = append(parts, fmt.Sprintf("%d stall", s.Stall))
	}
	if s.Polarization > 0 {
		parts = append(parts, fmt.Sprintf("%d polarization", s.Polarization))
	}
	if s.Throughput > 0 {
		parts = append(parts, fmt.Sprintf("%d degraded-throughput", s.Throughput))
	}
	head := "unhealthy"
	if s.Incidents == 0 {
		head = "regressed"
		parts = append(parts, "no fabric incident to attribute")
	}
	return fmt.Sprintf("%s: %d incidents (%s), %d open; %d/%d iterations regressed (%d attributed)",
		head, s.Incidents, strings.Join(parts, ", "), s.Open, s.Regressed, s.Iterations, s.Attributed)
}

// Summary returns the monitor's current summary.
func (m *Monitor) Summary() Summary {
	s := summarizeIncidents(m.incidents)
	m.eachReport(s.addIteration)
	return s
}
