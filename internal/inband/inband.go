// Package inband implements in-band path telemetry: the per-flow, per-hop
// record stream an INT-capable fabric would stamp into packet metadata and
// export from the last hop. Where the flow log answers "how did this flow
// do end to end", the in-band stream answers the paper's per-link
// questions: which flows collided on which link, what each ECMP stage
// decided (switch seed, group size, bucket), and how much queue pressure a
// flow sat behind at every hop.
//
// The stream is produced by netsim (one Record per traversed link per path
// generation of every flow): each closed generation reaches the Collector
// through FlushFlow as one event of netsim's fabric stream, live or memo
// replayed alike. The records are exported as deterministic TSV and JSON
// artifacts through the telemetry registry. cmd/hpnview
// consumes the TSV offline for fabric forensics: utilization heatmaps,
// contended-link attribution, observed-path ECMP imbalance, and hash
// polarization detection (see analyze.go).
package inband

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"hpn/internal/artifact"
	"hpn/internal/chunk"
	"hpn/internal/route"
	"hpn/internal/topo"
)

// Record is one hop of one path generation of one flow: the unit of
// in-band telemetry. A flow that is never rerouted contributes exactly one
// generation (Epoch 0); every reroute closes the current generation and
// opens the next.
type Record struct {
	// Flow is the netsim flow ID; Epoch counts the flow's path generations
	// (0 = the initial route); Seq is the hop index within the path.
	Flow  int64
	Epoch int
	Seq   int

	// Link is the directed link ID; Name is "fromNode>toNode" and Tier is
	// "fromKind-toKind" (e.g. "tor-agg"), so offline analysis needs no
	// topology file.
	Link int
	Name string
	Tier string

	// EnterNS/ExitNS bound the generation's lifetime in virtual time: the
	// span during which the flow occupied this hop.
	EnterNS int64
	ExitNS  int64

	// Bits is the time-weighted bandwidth attribution: the integral of the
	// flow's allocated rate over the generation — the traffic this flow
	// actually pushed through this link.
	Bits float64
	// QueueByteS is the queue-pressure residency: the integral of the
	// link's queue proxy (bytes) over the generation, i.e. byte-seconds of
	// standing queue the flow sat behind at this hop.
	QueueByteS float64

	// ECMP decision stamped by the switch that chose this link. Hashed is
	// false for the access and delivery links, which involve no hashing.
	Hashed   bool
	Node     string
	Seed     uint64
	Group    int
	Bucket   int
	PerPort  bool
	Fallback bool
	Down     bool

	// Tuple is the flow's packed 5-tuple word (hashing.FiveTuple.Word) —
	// the hash input behind every bucket above. Analyses that reason about
	// hash functions (polarization) dedupe on it, because one long-lived
	// connection re-observed many times says nothing new about the hash.
	Tuple uint64
}

// HopStat is what one hop of a path generation accumulated: the flow's
// time-weighted bits through it (Record.Bits) and the queue byte-seconds
// it sat behind (Record.QueueByteS).
type HopStat struct {
	Bits       float64
	QueueByteS float64
}

// Collector accumulates in-band records for one simulation.
type Collector struct {
	top *topo.Topology

	// max bounds the record buffer (0 = unbounded); records past the cap
	// are counted as dropped rather than kept.
	max     int
	recs    chunk.Store[Record]
	dropped int

	// labels holds each link's Name and Tier, built the first time the
	// link is flushed, so every later record shares those two strings.
	labels []linkLabel
}

type linkLabel struct{ name, tier string }

// NewCollector returns a collector over top retaining at most max records
// (0 = unbounded).
func NewCollector(top *topo.Topology, max int) *Collector {
	return &Collector{top: top, max: max}
}

// Records returns a copy of the retained records in emission order.
func (c *Collector) Records() []Record { return c.recs.Slice() }

// Dropped returns how many records were discarded past the cap.
func (c *Collector) Dropped() int { return c.dropped }

// FlushFlow closes one path generation of a flow: it appends one Record
// per hop, labeling each link from the topology and copying the per-hop
// accumulators. hops and stats are parallel to the path walked; stats may
// be shorter (e.g. a partial path), in which case missing entries read as
// zero.
func (c *Collector) FlushFlow(flowID int64, epoch int, tuple uint64, enterNS, exitNS int64, hops []route.HopDecision, stats []HopStat) {
	for i, h := range hops {
		if c.max > 0 && c.recs.Len() >= c.max {
			c.dropped += len(hops) - i
			break
		}
		lb := c.label(h.Link)
		r := Record{
			Flow: flowID, Epoch: epoch, Seq: i, Tuple: tuple,
			Link:    int(h.Link),
			Name:    lb.name,
			Tier:    lb.tier,
			EnterNS: enterNS, ExitNS: exitNS,
			Hashed: h.Hashed, Seed: h.Seed,
			Group: h.Group, Bucket: h.Bucket,
			PerPort: h.PerPort, Fallback: h.Fallback, Down: h.Down,
		}
		if h.Hashed {
			r.Node = c.top.Node(h.Node).Name
		}
		if i < len(stats) {
			r.Bits = stats[i].Bits
			r.QueueByteS = stats[i].QueueByteS
		}
		c.recs.Append(r)
	}
}

// label returns the link's interned Name and Tier. A hashing node's name
// needs no such table: the topology already holds it as one string.
func (c *Collector) label(id topo.LinkID) linkLabel {
	if c.labels == nil {
		c.labels = make([]linkLabel, len(c.top.Links))
	}
	lb := &c.labels[id]
	if lb.name == "" {
		l := c.top.Link(id)
		from, to := c.top.Node(l.From), c.top.Node(l.To)
		lb.name = from.Name + ">" + to.Name
		lb.tier = from.Kind.String() + "-" + to.Kind.String()
	}
	return *lb
}

// tsvHeader is the artifact schema, documented in README.md. Field order
// is part of the determinism contract.
const tsvHeader = "flow\tepoch\tseq\tlink\tname\ttier\tenter_ns\texit_ns\tbits\tqueue_bytesec\thashed\tnode\tseed\tgroup\tbucket\tperport\tfallback\tdown\ttuple\n"

// WriteTSV streams every retained record as the per-hop TSV artifact.
func (c *Collector) WriteTSV(w io.Writer) error {
	bw := artifact.NewWriter(w)
	bw.WriteString(tsvHeader)
	var row []byte
	for _, recs := range c.recs.Chunks() {
		for i := range recs {
			row = appendTSV(row[:0], &recs[i])
			bw.Write(row)
		}
	}
	return bw.Flush()
}

func appendTSV(b []byte, r *Record) []byte {
	b = strconv.AppendInt(b, r.Flow, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Epoch), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Link), 10)
	b = append(b, '\t')
	b = append(b, r.Name...)
	b = append(b, '\t')
	b = append(b, r.Tier...)
	b = append(b, '\t')
	b = strconv.AppendInt(b, r.EnterNS, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, r.ExitNS, 10)
	b = append(b, '\t')
	b = artifact.AppendFloat(b, r.Bits)
	b = append(b, '\t')
	b = artifact.AppendFloat(b, r.QueueByteS)
	b = append(b, '\t')
	b = strconv.AppendBool(b, r.Hashed)
	b = append(b, '\t')
	b = append(b, r.Node...)
	b = append(b, '\t')
	b = strconv.AppendUint(b, r.Seed, 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Group), 10)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(r.Bucket), 10)
	b = append(b, '\t')
	b = strconv.AppendBool(b, r.PerPort)
	b = append(b, '\t')
	b = strconv.AppendBool(b, r.Fallback)
	b = append(b, '\t')
	b = strconv.AppendBool(b, r.Down)
	b = append(b, '\t')
	b = strconv.AppendUint(b, r.Tuple, 10)
	return append(b, '\n')
}

// WriteJSON streams the records as a JSON array, hand-rendered with a
// fixed field order, Go-quoted strings and 'g'-format floats so the bytes
// are deterministic and diffable across same-seed runs.
func (c *Collector) WriteJSON(w io.Writer) error {
	bw := artifact.NewWriter(w)
	bw.WriteString("[\n")
	var row []byte
	left := c.recs.Len()
	for _, recs := range c.recs.Chunks() {
		for i := range recs {
			row = appendJSON(row[:0], &recs[i])
			if left--; left > 0 {
				row = append(row, ',')
			}
			row = append(row, '\n')
			bw.Write(row)
		}
	}
	bw.WriteString("]\n")
	return bw.Flush()
}

func appendJSON(b []byte, r *Record) []byte {
	b = append(b, `{"flow":`...)
	b = strconv.AppendInt(b, r.Flow, 10)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendInt(b, int64(r.Epoch), 10)
	b = append(b, `,"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	b = append(b, `,"link":`...)
	b = strconv.AppendInt(b, int64(r.Link), 10)
	b = append(b, `,"name":`...)
	b = artifact.AppendQuote(b, r.Name)
	b = append(b, `,"tier":`...)
	b = artifact.AppendQuote(b, r.Tier)
	b = append(b, `,"enter_ns":`...)
	b = strconv.AppendInt(b, r.EnterNS, 10)
	b = append(b, `,"exit_ns":`...)
	b = strconv.AppendInt(b, r.ExitNS, 10)
	b = append(b, `,"bits":`...)
	b = artifact.AppendFloat(b, r.Bits)
	b = append(b, `,"queue_bytesec":`...)
	b = artifact.AppendFloat(b, r.QueueByteS)
	b = append(b, `,"hashed":`...)
	b = strconv.AppendBool(b, r.Hashed)
	b = append(b, `,"node":`...)
	b = artifact.AppendQuote(b, r.Node)
	b = append(b, `,"seed":`...)
	b = strconv.AppendUint(b, r.Seed, 10)
	b = append(b, `,"group":`...)
	b = strconv.AppendInt(b, int64(r.Group), 10)
	b = append(b, `,"bucket":`...)
	b = strconv.AppendInt(b, int64(r.Bucket), 10)
	b = append(b, `,"perport":`...)
	b = strconv.AppendBool(b, r.PerPort)
	b = append(b, `,"fallback":`...)
	b = strconv.AppendBool(b, r.Fallback)
	b = append(b, `,"down":`...)
	b = strconv.AppendBool(b, r.Down)
	b = append(b, `,"tuple":`...)
	b = strconv.AppendUint(b, r.Tuple, 10)
	return append(b, '}')
}

// ParseTSV reads records back from the TSV artifact — the ingestion side
// of cmd/hpnview. It accepts exactly the schema WriteTSV produces.
func ParseTSV(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) == 0 || lines[0]+"\n" != tsvHeader {
		return nil, fmt.Errorf("inband: not an in-band TSV artifact (bad header)")
	}
	var out []Record
	for ln, line := range lines[1:] {
		if line == "" {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 19 {
			return nil, fmt.Errorf("inband: line %d: %d fields, want 19", ln+2, len(f))
		}
		var rec Record
		var errs []error
		geti := func(s string) int {
			v, e := strconv.Atoi(s)
			errs = append(errs, e)
			return v
		}
		geti64 := func(s string) int64 {
			v, e := strconv.ParseInt(s, 10, 64)
			errs = append(errs, e)
			return v
		}
		getf := func(s string) float64 {
			v, e := strconv.ParseFloat(s, 64)
			errs = append(errs, e)
			return v
		}
		getb := func(s string) bool {
			v, e := strconv.ParseBool(s)
			errs = append(errs, e)
			return v
		}
		rec.Flow = geti64(f[0])
		rec.Epoch = geti(f[1])
		rec.Seq = geti(f[2])
		rec.Link = geti(f[3])
		rec.Name = f[4]
		rec.Tier = f[5]
		rec.EnterNS = geti64(f[6])
		rec.ExitNS = geti64(f[7])
		rec.Bits = getf(f[8])
		rec.QueueByteS = getf(f[9])
		rec.Hashed = getb(f[10])
		rec.Node = f[11]
		seed, e := strconv.ParseUint(f[12], 10, 64)
		errs = append(errs, e)
		rec.Seed = seed
		rec.Group = geti(f[13])
		rec.Bucket = geti(f[14])
		rec.PerPort = getb(f[15])
		rec.Fallback = getb(f[16])
		rec.Down = getb(f[17])
		tuple, e := strconv.ParseUint(f[18], 10, 64)
		errs = append(errs, e)
		rec.Tuple = tuple
		for _, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("inband: line %d: %v", ln+2, e)
			}
		}
		out = append(out, rec)
	}
	return out, nil
}
