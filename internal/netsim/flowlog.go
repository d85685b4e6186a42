package netsim

import (
	"io"
	"strconv"

	"hpn/internal/artifact"
	"hpn/internal/chunk"
	"hpn/internal/sim"
)

// FlowRecord is the completed-flow log entry: what a production flow
// telemetry pipeline (or an INT collector) would export per flow.
type FlowRecord struct {
	ID         int64
	SrcHost    int
	SrcNIC     int
	DstHost    int
	DstNIC     int
	Port       int // source NIC port (plane) at completion
	Bytes      float64
	Start, End sim.Time
	Hops       int
	CrossedAgg bool
	CrossedCor bool
}

// Duration returns the flow completion time.
func (r FlowRecord) Duration() sim.Time { return r.End - r.Start }

// Gbps returns the flow's average goodput.
func (r FlowRecord) Gbps() float64 {
	d := r.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return r.Bytes * 8 / d / 1e9
}

// flowLog is the completed-flow log: an EvFlowDone subscriber appending one
// record per completion.
type flowLog struct{ recs chunk.Store[FlowRecord] }

func (*flowLog) Kinds() EventKind { return EvFlowDone }

func (l *flowLog) FabricEvent(e *Event) {
	f := &e.Flow
	l.recs.Append(FlowRecord{
		ID:      f.ID,
		SrcHost: f.Src.Host, SrcNIC: f.Src.NIC,
		DstHost: f.Dst.Host, DstNIC: f.Dst.NIC,
		Port:  f.Port,
		Bytes: f.Bits / 8,
		Start: f.StartedAt, End: e.At,
		Hops:       f.PathLen,
		CrossedAgg: f.CrossedAgg, CrossedCor: f.CrossedCore,
	})
}

// EnableFlowLog starts recording every completed flow. Call before the
// first flow starts. If telemetry is attached, the log is also exposed as
// the "flowlog.tsv" artifact exporter.
func (s *Sim) EnableFlowLog() {
	if s.flowLog == nil {
		s.flowLog = &flowLog{}
		s.Subscribe(s.flowLog)
	}
	s.flowLog.recs = chunk.Store[FlowRecord]{}
	s.registerFlowLogExporter()
}

// FlowLog returns a copy of the recorded completions.
func (s *Sim) FlowLog() []FlowRecord {
	if s.flowLog == nil {
		return nil
	}
	return s.flowLog.recs.Slice()
}

// WriteFlowLog streams the log as a TSV for offline analysis.
func (s *Sim) WriteFlowLog(w io.Writer) error {
	bw := artifact.NewWriter(w)
	bw.WriteString("id\tsrc\tdst\tport\tbytes\tstart_s\tend_s\tgbps\thops\tagg\tcore\n")
	var b []byte
	if s.flowLog != nil {
		for _, recs := range s.flowLog.recs.Chunks() {
			for i := range recs {
				b = appendFlowRecord(b[:0], &recs[i])
				bw.Write(b)
			}
		}
	}
	return bw.Flush()
}

func appendFlowRecord(b []byte, r *FlowRecord) []byte {
	b = strconv.AppendInt(b, r.ID, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.SrcHost), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(r.SrcNIC), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.DstHost), 10)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(r.DstNIC), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Port), 10)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Bytes, 'f', 0, 64)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Start.Seconds(), 'f', 6, 64)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.End.Seconds(), 'f', 6, 64)
	b = append(b, '\t')
	b = strconv.AppendFloat(b, r.Gbps(), 'f', 2, 64)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Hops), 10)
	b = append(b, '\t')
	b = strconv.AppendBool(b, r.CrossedAgg)
	b = append(b, '\t')
	b = strconv.AppendBool(b, r.CrossedCor)
	return append(b, '\n')
}
