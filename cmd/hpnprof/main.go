// Command hpnprof renders an engine self-profile (the prof.json artifact
// written under hpnsim/hpnbench -prof) as a phase-breakdown report.
//
// Usage:
//
//	hpnprof run/prof.json
//
// Exit status 2 on usage or I/O errors, 0 otherwise. Comparing two runs
// is the perfbench module's job.
package main

import (
	"flag"
	"fmt"
	"os"

	"hpn/internal/prof"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "hpnprof: need one profile path")
		os.Exit(2)
	}
	p, err := loadProfile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hpnprof: %v\n", err)
		os.Exit(2)
	}
	prof.Report(p, os.Stdout)
}

func loadProfile(path string) (*prof.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := prof.ParseProfile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
