package artifact

import (
	"fmt"
	"math/rand"
	"testing"

	"hpn/internal/artifact/artifacttest"
)

func quoteInputs() []string {
	rng := rand.New(rand.NewSource(1))
	in := append([]string(nil), artifacttest.Strings...)
	for i := 0; i < 2000; i++ {
		in = append(in, artifacttest.String(rng))
	}
	for c := 0; c < 256; c++ {
		in = append(in, string([]byte{'a', byte(c), 'z'}))
	}
	return in
}

func TestAppendQuoteMatchesStrconv(t *testing.T) {
	for _, s := range quoteInputs() {
		if got, want := string(AppendQuote([]byte("x"), s)), "x"+fmt.Sprintf("%q", s); got != want {
			t.Errorf("AppendQuote(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendJSONStringMatchesOracle(t *testing.T) {
	oracle := func(s string) string {
		b := []byte{'"'}
		for i := 0; i < len(s); i++ {
			c := s[i]
			switch {
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c < 0x20:
				b = append(b, fmt.Sprintf(`\u%04x`, c)...)
			default:
				b = append(b, c)
			}
		}
		return string(append(b, '"'))
	}
	for _, s := range quoteInputs() {
		if got, want := string(AppendJSONString([]byte("x"), s)), "x"+oracle(s); got != want {
			t.Errorf("AppendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}
