package inband

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"hpn/internal/artifact/artifacttest"
)

// oracleTSV and oracleJSON are the fmt-based renderers the streaming
// writers replaced, kept as the byte-for-byte reference.
func oracleTSV(recs []Record) []byte {
	var b strings.Builder
	b.WriteString(tsvHeader)
	for i := range recs {
		r := &recs[i]
		fmt.Fprintf(&b, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\t%s\t%s\t%v\t%s\t%d\t%d\t%d\t%v\t%v\t%v\t%d\n",
			r.Flow, r.Epoch, r.Seq, r.Link, r.Name, r.Tier, r.EnterNS, r.ExitNS,
			strconv.FormatFloat(r.Bits, 'g', -1, 64),
			strconv.FormatFloat(r.QueueByteS, 'g', -1, 64),
			r.Hashed, r.Node, r.Seed, r.Group, r.Bucket, r.PerPort, r.Fallback, r.Down, r.Tuple)
	}
	return []byte(b.String())
}

func oracleJSON(recs []Record) []byte {
	var b strings.Builder
	b.WriteString("[\n")
	for i := range recs {
		r := &recs[i]
		fmt.Fprintf(&b, `{"flow":%d,"epoch":%d,"seq":%d,"link":%d,"name":%q,"tier":%q,`+
			`"enter_ns":%d,"exit_ns":%d,"bits":%s,"queue_bytesec":%s,`+
			`"hashed":%v,"node":%q,"seed":%d,"group":%d,"bucket":%d,"perport":%v,"fallback":%v,"down":%v,"tuple":%d}`,
			r.Flow, r.Epoch, r.Seq, r.Link, r.Name, r.Tier,
			r.EnterNS, r.ExitNS,
			strconv.FormatFloat(r.Bits, 'g', -1, 64),
			strconv.FormatFloat(r.QueueByteS, 'g', -1, 64),
			r.Hashed, r.Node, r.Seed, r.Group, r.Bucket, r.PerPort, r.Fallback, r.Down, r.Tuple)
		if i+1 < len(recs) {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("]\n")
	return []byte(b.String())
}

func randomRecord(r *rand.Rand) Record {
	return Record{
		Flow: artifacttest.Int64(r), Epoch: artifacttest.Int(r), Seq: artifacttest.Int(r), Link: artifacttest.Int(r),
		Name: artifacttest.String(r), Tier: artifacttest.String(r),
		EnterNS: artifacttest.Int64(r), ExitNS: artifacttest.Int64(r),
		Bits: artifacttest.Float(r), QueueByteS: artifacttest.Float(r),
		Hashed: r.Intn(2) == 0, Node: artifacttest.String(r), Seed: artifacttest.Uint64(r),
		Group: artifacttest.Int(r), Bucket: artifacttest.Int(r),
		PerPort: r.Intn(2) == 0, Fallback: r.Intn(2) == 0, Down: r.Intn(2) == 0,
		Tuple: artifacttest.Uint64(r),
	}
}

// edgeRecords puts every edge value into every field of its kind.
func edgeRecords() []Record {
	var recs []Record
	for i, s := range artifacttest.Strings {
		recs = append(recs, Record{Name: s, Tier: s, Node: s, Seed: artifacttest.Uint64s[i%len(artifacttest.Uint64s)]})
	}
	for _, v := range artifacttest.Floats {
		recs = append(recs, Record{Bits: v, QueueByteS: v})
	}
	for _, v := range artifacttest.Int64s {
		recs = append(recs, Record{Flow: v, Epoch: int(v), Seq: int(v), Link: int(v), EnterNS: v, ExitNS: v, Group: int(v), Bucket: int(v)})
	}
	for _, v := range artifacttest.Uint64s {
		recs = append(recs, Record{Seed: v, Tuple: v, Hashed: true, PerPort: true, Fallback: true, Down: true})
	}
	return recs
}

func writeRecs(recs []Record, write func(*Collector, io.Writer) error) []byte {
	var buf bytes.Buffer
	if err := write(&Collector{recs: recs}, &buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// The streaming writers render exactly what the fmt-based ones did, on
// edge values and on randomized records.
func TestWritersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sets := map[string][]Record{"empty": nil, "edge": edgeRecords()}
	for k := 0; k < 20; k++ {
		recs := make([]Record, 1+rng.Intn(200))
		for i := range recs {
			recs[i] = randomRecord(rng)
		}
		sets[fmt.Sprintf("random%02d", k)] = recs
	}
	for name, recs := range sets {
		if got, want := writeRecs(recs, (*Collector).WriteTSV), oracleTSV(recs); !bytes.Equal(got, want) {
			t.Errorf("%s: WriteTSV differs from the oracle:\n got %q\nwant %q", name, got, want)
		}
		if got, want := writeRecs(recs, (*Collector).WriteJSON), oracleJSON(recs); !bytes.Equal(got, want) {
			t.Errorf("%s: WriteJSON differs from the oracle:\n got %q\nwant %q", name, got, want)
		}
	}
}

func TestWritersSurfaceErrors(t *testing.T) {
	c := &Collector{recs: edgeRecords()}
	artifacttest.CheckErrors(t, "inband.tsv", c.WriteTSV)
	artifacttest.CheckErrors(t, "inband.json", c.WriteJSON)
}

func TestWritersAllocateConstant(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randomRecord(rng)
	r.Name, r.Tier, r.Node = "tor0>agg1", "tor-agg", "tor0"
	small, large := &Collector{recs: make([]Record, 10)}, &Collector{recs: make([]Record, 10_000)}
	for _, c := range []*Collector{small, large} {
		for i := range c.recs {
			c.recs[i] = r
		}
	}
	artifacttest.CheckAllocs(t, "inband.tsv", small.WriteTSV, large.WriteTSV)
	artifacttest.CheckAllocs(t, "inband.json", small.WriteJSON, large.WriteJSON)
}

// FlushFlow builds each link's labels once and shares them across records.
func TestFlushFlowInternsLabels(t *testing.T) {
	top, hops := observedPath(t, 1000)
	c := NewCollector(top, 0)
	c.FlushFlow(1, 0, 0, 0, 10, hops, nil)
	c.FlushFlow(2, 0, 0, 0, 10, hops, nil)
	if n := testing.AllocsPerRun(10, func() {
		c.recs = c.recs[:0]
		c.FlushFlow(3, 0, 0, 0, 10, hops, nil)
	}); n != 0 {
		t.Errorf("FlushFlow of an already-seen path allocated %.0f times", n)
	}
	for i, h := range hops {
		l := top.Link(h.Link)
		from, to := top.Node(l.From), top.Node(l.To)
		r := c.recs[i]
		if r.Name != from.Name+">"+to.Name || r.Tier != from.Kind.String()+"-"+to.Kind.String() {
			t.Errorf("hop %d labelled %q %q", i, r.Name, r.Tier)
		}
	}
}
