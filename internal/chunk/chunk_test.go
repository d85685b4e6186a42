package chunk

import "testing"

// A store keeps every element in order across chunks that double from
// firstBytes up to maxBytes, and a chunk list taken earlier still reads
// the elements it held once the store has grown past it.
func TestStoreKeepsOrderAcrossChunks(t *testing.T) {
	var s Store[int64]
	if s.Len() != 0 || len(s.Chunks()) != 0 || len(s.Slice()) != 0 {
		t.Fatal("zero store is not empty")
	}
	const n = 400_000
	var early [][]int64
	for i := 0; i < n; i++ {
		if i == 1000 {
			early = s.Chunks()
		}
		s.Append(int64(i))
	}
	if s.Len() != n {
		t.Fatalf("Len %d, want %d", s.Len(), n)
	}
	chunks := s.Chunks()
	if got, want := len(chunks[0]), firstBytes/8; got != want {
		t.Errorf("first chunk holds %d elements, want %d", got, want)
	}
	i := 0
	for k, c := range chunks {
		if k+1 < len(chunks) && len(c) != min(firstBytes/8<<k, maxBytes/8) {
			t.Errorf("chunk %d holds %d elements", k, len(c))
		}
		for _, v := range c {
			if v != int64(i) {
				t.Fatalf("element %d reads %d", i, v)
			}
			i++
		}
	}
	if i != n {
		t.Fatalf("chunks hold %d elements, want %d", i, n)
	}
	i = 0
	for _, c := range early {
		for _, v := range c {
			if v != int64(i) {
				t.Fatalf("early view: element %d reads %d", i, v)
			}
			i++
		}
	}
	if i != 1000 {
		t.Fatalf("early view holds %d elements, want 1000", i)
	}
	all := s.Slice()
	if len(all) != n || all[n-1] != n-1 {
		t.Fatalf("Slice holds %d elements ending %d", len(all), all[len(all)-1])
	}
}
