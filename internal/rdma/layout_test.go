package rdma

import (
	"testing"
	"unsafe"

	"hpn/internal/netsim"
)

// TestHotStructsKeepTheirSizeClass pins the two per-message structures to
// the allocator size classes they fill exactly: netsim.Flow to 192 B and
// Conn to 96 B. One byte more moves every allocation of them up a class
// (208 B and 112 B). A route-cache layout that kept a path copy per Conn
// and a *Route on Flow did that, and moved contended's bytes_per_flow
// +2.9% and allocs_per_flow +3.3%, past their 2% benchmark bounds.
func TestHotStructsKeepTheirSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(netsim.Flow{}); n > 192 {
		t.Errorf("netsim.Flow is %d B; keep it within the 192 B size class", n)
	}
	if n := unsafe.Sizeof(Conn{}); n > 96 {
		t.Errorf("rdma.Conn is %d B; keep it within the 96 B size class", n)
	}
}
