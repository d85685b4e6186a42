package hpn

import (
	"fmt"
	"sort"
)

// Scale selects experiment fidelity.
type Scale int

// Experiment scales.
const (
	// ScaleQuick shrinks host counts so every experiment runs in seconds
	// (CI, unit tests, examples). Structure and claims are unchanged.
	ScaleQuick Scale = iota
	// ScaleFull uses the paper's sizes where the fluid simulator can carry
	// them (e.g. 2300+-GPU jobs, 448-GPU sweeps).
	ScaleFull
)

// Env is what an experiment runs in: its scale and the hub every cluster
// it builds joins in build order (nil: none). A report is a function of
// the scale alone: the hub only observes, whatever its options, and no
// report reads the host (testdata/ pins every quick-scale report bare,
// under an observing hub and under a memo hub).
type Env struct {
	Scale Scale
	Hub   *TelemetryHub
}

// join attaches a just-built cluster to the env's hub, passing a build
// error through: env.join(NewHPN(cfg)).
func (env Env) join(c *Cluster, err error) (*Cluster, error) {
	if err == nil {
		c.EnableTelemetry(env.Hub)
	}
	return c, err
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(Env) (*Report, error)
}

var registry = map[string]Experiment{}
var order []string

func register(id, title string, run func(Env) (*Report, error)) {
	if _, dup := registry[id]; dup {
		panic("hpn: duplicate experiment " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Run: run}
	order = append(order, id)
}

// Experiments lists all registered experiments in registration order.
func Experiments() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, id := range order {
		out = append(out, registry[id])
	}
	return out
}

// ExperimentIDs returns the sorted experiment identifiers.
func ExperimentIDs() []string {
	ids := append([]string(nil), order...)
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by ID in env.
func Run(id string, env Env) (*Report, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("hpn: unknown experiment %q (have %v)", id, ExperimentIDs())
	}
	return e.Run(env)
}
