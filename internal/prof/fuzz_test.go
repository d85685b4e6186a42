package prof

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseProfile feeds the prof.json parser arbitrary input. It must
// never panic, and whatever it accepts must render through Report and
// re-encode to a document that parses to the same profile.
func FuzzParseProfile(f *testing.F) {
	seed, err := os.ReadFile("testdata/prof.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"gomaxprocs":1,"phases":[{"name":"a\"b\\c\u0001é","count":9223372036854775807,"wall_ns":0}]}`))
	f.Add([]byte(`{"phases":[{"name":"x","count":1}]} {}`))
	f.Add([]byte(`{"phases":[{"name":"x","count":1},{"name":"x","count":2}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		var report strings.Builder
		Report(p, &report)
		for _, st := range p.Phases {
			if !strings.Contains(report.String(), st.Name) {
				t.Fatalf("report omits phase %q:\n%s", st.Name, report.String())
			}
		}
		var buf bytes.Buffer
		if err := writeProfileJSON(&buf, p); err != nil {
			t.Fatal(err)
		}
		again, err := ParseProfile(&buf)
		if err != nil {
			t.Fatalf("the written profile does not parse: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(p, again) {
			t.Fatalf("profile changed across a write:\n%+v\n%+v", p, again)
		}
	})
}
