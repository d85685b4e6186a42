// Package observe is the observability front end hpnsim and hpnbench
// share: the flags that turn the observers and profiles on, their mapping
// to telemetry options, and the writers that put a finished run's trace,
// metrics, artifacts and profiles on disk.
package observe

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"

	"hpn"
)

// Flags holds the shared flags' values: output paths and directories,
// empty when not requested, and the -memo switch.
type Flags struct {
	Trace, Metrics         string
	Inband, Health, Prof   string
	Memo                   string
	CPUProfile, MemProfile string
	name                   string
}

// Register defines the shared flags on fs and returns where they land.
// Messages the front end prints carry fs's name.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{name: fs.Name()}
	fs.StringVar(&f.Trace, "trace", "", "write a Chrome trace-event JSON (chrome://tracing, Perfetto), one trace process per cluster built, to this file")
	fs.StringVar(&f.Metrics, "metrics", "", "write Prometheus-text metrics to this file")
	fs.StringVar(&f.Inband, "inband", "", "enable in-band path telemetry on every cluster and write the run artifacts (per-hop inband.tsv/json and the hub's other artifacts, such as samples and, in hpnsim, the flow log) into this directory")
	fs.StringVar(&f.Health, "health", "", "enable online fabric health monitoring on every cluster and write the run artifacts (incidents.tsv/json causal timelines; render with hpndoctor) into this directory")
	fs.StringVar(&f.Memo, "memo", "off", "iteration memoization on every cluster: on | off (fast-forward repeated steady-state iterations; disables periodic sampling; composes with sharded runs)")
	fs.StringVar(&f.Prof, "prof", "", "enable engine self-profiling and write the run artifacts (the prof.json phase breakdown, rendered by hpnprof, and the flight.tsv incident event ring) into this directory")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	return f
}

// Start starts the run's CPU profile, if -cpuprofile asks for one. The
// returned stop flushes it and closes the file, returning the close error;
// without -cpuprofile both do nothing.
func (f *Flags) Start() (stop func() error, err error) {
	if f.CPUProfile == "" {
		return func() error { return nil }, nil
	}
	return startCPUProfile(f.CPUProfile)
}

// startCPUProfile starts a pprof CPU profile into path. The returned stop
// flushes the profile and closes the file, returning the close error.
func startCPUProfile(path string) (stop func() error, err error) {
	file, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(file); err != nil {
		file.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := file.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		return nil
	}, nil
}

// Options maps the flags to telemetry options: nil when no flag asks for
// a hub or for memo. A -memo value other than on or off is a usage error.
// Every observer samples periodically unless memo is on, which turns
// sampling off and says so on stdout.
func (f *Flags) Options() (*hpn.TelemetryOptions, error) {
	memoOn := false
	switch f.Memo {
	case "on":
		memoOn = true
	case "off":
	default:
		return nil, fmt.Errorf("-memo must be on or off, got %q", f.Memo)
	}
	if f.Trace == "" && f.Metrics == "" && f.Inband == "" && f.Health == "" && f.Prof == "" && !memoOn {
		return nil, nil
	}
	opt := hpn.DefaultTelemetryOptions()
	opt.Trace = f.Trace != ""
	opt.Inband = f.Inband != ""
	opt.Health = f.Health != ""
	opt.Memo = memoOn
	opt.Prof = f.Prof != ""
	if memoOn {
		fmt.Println("memo: periodic sampling disabled (incompatible with fast-forward)")
	}
	return &opt, nil
}

// Write writes every output the flags ask for once the run is done: hub's
// trace and Prometheus metrics, the artifacts of hub and its shard hubs
// into each artifact directory, and the heap profile. Without a hub only
// the heap profile is written. It prints each path written to stdout, and
// each write error and each overflow warning of hub to stderr; it reports
// whether every write succeeded.
func (f *Flags) Write(hub *hpn.TelemetryHub) (ok bool) {
	ok = true
	report := func(err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", f.name, err)
			ok = false
		}
	}
	if hub != nil {
		if f.Trace != "" {
			report(writeFile("trace", f.Trace, fmt.Sprintf(" (%d events)", hub.Tracer.Events()), func(w io.Writer) error {
				_, err := hub.Tracer.WriteTo(w)
				return err
			}))
		}
		if f.Metrics != "" {
			report(writeFile("metrics", f.Metrics, "", hub.Registry.WritePrometheus))
		}
		for _, dir := range artifactDirs(f.Inband, f.Health, f.Prof) {
			paths, err := hub.WriteArtifacts(dir)
			for _, p := range paths {
				fmt.Printf("wrote %s\n", p)
			}
			if err != nil {
				report(fmt.Errorf("artifacts: %w", err))
			}
		}
		for _, w := range hpn.OverflowWarnings(hub) {
			fmt.Fprintf(os.Stderr, "%s: %s\n", f.name, w)
		}
	}
	if f.MemProfile != "" {
		report(writeFile("memprofile", f.MemProfile, "", func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}))
	}
	return ok
}

// artifactDirs lists the non-empty dirs without repeats: -inband, -health
// and -prof each write the hub's full artifact set.
func artifactDirs(dirs ...string) []string {
	var out []string
	for _, d := range dirs {
		if d != "" && !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	return out
}

// writeFile writes path through write and prints it, followed by note;
// errors name the flag that asked for the file.
func writeFile(name, path, note string, write func(io.Writer) error) error {
	file, err := os.Create(path)
	if err == nil {
		err = write(file)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Printf("wrote %s%s\n", path, note)
	return nil
}
