package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

// runCaptured runs the command with args and returns its exit status and
// what it wrote to stderr.
func runCaptured(t *testing.T, args ...string) (int, string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr := os.Stdout, os.Stderr
	devnull, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout, os.Stderr = devnull, w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	code := run(args)
	os.Stdout, os.Stderr = stdout, stderr
	w.Close()
	devnull.Close()
	return code, <-done
}

// Every flag hpntopo cannot honour for the chosen architecture, and every
// out-of-range count, is a usage error with a one-line message; each
// architecture still builds and validates.
func TestFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-pods", "0"}, 2, "hpntopo: -pods must be >= 1, got 0"},
		{[]string{"-pods", "-1"}, 2, "hpntopo: -pods must be >= 1, got -1"},
		{[]string{"-segments", "-1"}, 2, "hpntopo: -segments must be >= 0 (0 = the default), got -1"},
		{[]string{"-arch", "frontend", "-pods", "2"}, 2, "hpntopo: -pods does not apply to -arch frontend"},
		{[]string{"-arch", "dcn", "-segments", "4"}, 2, "hpntopo: -segments does not apply to -arch dcn"},
		{[]string{"-arch", "dcn", "-single-tor"}, 2, "hpntopo: -single-tor does not apply to -arch dcn"},
		{[]string{"-arch", "dcn", "-single-plane"}, 2, "hpntopo: -single-plane does not apply to -arch dcn"},
		{[]string{"-arch", "clos"}, 2, `hpntopo: unknown arch "clos" (want hpn, dcn or frontend)`},
		{[]string{"-arch", "hpn", "-segments", "2"}, 0, ""},
		{[]string{"-arch", "dcn"}, 0, ""},
		{[]string{"-arch", "frontend"}, 0, ""},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			code, stderr := runCaptured(t, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, c.code, stderr)
			}
			if want := c.msg; want != "" {
				want += "\n"
				if stderr != want {
					t.Fatalf("stderr %q, want %q", stderr, want)
				}
			} else if stderr != "" {
				t.Fatalf("unexpected stderr %q", stderr)
			}
		})
	}
}
