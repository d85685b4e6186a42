package netsim

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hpn/internal/artifact/artifacttest"
	"hpn/internal/sim"
)

// oracleFlowLog is the fmt-based renderer WriteFlowLog replaced, kept as
// the byte-for-byte reference.
func oracleFlowLog(recs []FlowRecord) []byte {
	var b strings.Builder
	b.WriteString("id\tsrc\tdst\tport\tbytes\tstart_s\tend_s\tgbps\thops\tagg\tcore\n")
	for _, r := range recs {
		fmt.Fprintf(&b, "%d\t%d:%d\t%d:%d\t%d\t%.0f\t%.6f\t%.6f\t%.2f\t%d\t%v\t%v\n",
			r.ID, r.SrcHost, r.SrcNIC, r.DstHost, r.DstNIC, r.Port, r.Bytes,
			r.Start.Seconds(), r.End.Seconds(), r.Gbps(), r.Hops, r.CrossedAgg, r.CrossedCor)
	}
	return []byte(b.String())
}

func flowLogSim(recs []FlowRecord) *Sim { return &Sim{flowLog: &flowLog{recs: recs}} }

func randomFlowRecord(r *rand.Rand) FlowRecord {
	return FlowRecord{
		ID: artifacttest.Int64(r), SrcHost: artifacttest.Int(r), SrcNIC: artifacttest.Int(r),
		DstHost: artifacttest.Int(r), DstNIC: artifacttest.Int(r), Port: artifacttest.Int(r),
		Bytes: artifacttest.Float(r),
		Start: sim.Time(artifacttest.Int64(r)), End: sim.Time(artifacttest.Int64(r)),
		Hops: artifacttest.Int(r), CrossedAgg: r.Intn(2) == 0, CrossedCor: r.Intn(2) == 0,
	}
}

func TestWriteFlowLogMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var edge []FlowRecord
	for _, v := range artifacttest.Floats {
		edge = append(edge, FlowRecord{Bytes: v, End: 1}, FlowRecord{Bytes: v, Start: -5, End: sim.Time(1e12)})
	}
	for _, v := range artifacttest.Int64s {
		edge = append(edge, FlowRecord{ID: v, SrcHost: int(v), DstNIC: int(v), Start: sim.Time(v), End: sim.Time(v / 2), Hops: int(v)})
	}
	sets := [][]FlowRecord{nil, edge}
	for k := 0; k < 20; k++ {
		recs := make([]FlowRecord, 1+rng.Intn(200))
		for i := range recs {
			recs[i] = randomFlowRecord(rng)
		}
		sets = append(sets, recs)
	}
	for k, recs := range sets {
		var buf bytes.Buffer
		if err := flowLogSim(recs).WriteFlowLog(&buf); err != nil {
			t.Fatal(err)
		}
		if want := oracleFlowLog(recs); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("set %d: flow log differs from the oracle:\n got %q\nwant %q", k, buf.Bytes(), want)
		}
	}
}

func TestWriteFlowLogSurfacesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	recs := make([]FlowRecord, 50)
	for i := range recs {
		recs[i] = randomFlowRecord(rng)
	}
	artifacttest.CheckErrors(t, "flowlog.tsv", flowLogSim(recs).WriteFlowLog)
}

func TestWriteFlowLogAllocatesConstant(t *testing.T) {
	rec := FlowRecord{ID: 12345, SrcHost: 3, DstHost: 7, DstNIC: 1, Port: 1, Bytes: 1 << 24,
		Start: 5 * sim.Millisecond, End: 9 * sim.Millisecond, Hops: 4, CrossedAgg: true}
	log := func(n int) *Sim {
		recs := make([]FlowRecord, n)
		for i := range recs {
			recs[i] = rec
		}
		return flowLogSim(recs)
	}
	artifacttest.CheckAllocs(t, "flowlog.tsv", log(10).WriteFlowLog, log(10_000).WriteFlowLog)
}
