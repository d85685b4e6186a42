package workload

import (
	"fmt"

	"hpn/internal/metrics"
	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/sim"
)

// InferenceSpec models the §8 mixed-deployment traffic: model-serving
// requests and responses carried by the frontend network alongside
// management and storage flows.
type InferenceSpec struct {
	// RequestBytes / ResponseBytes per call (prompts are small, generated
	// outputs with KV-cache streaming are larger).
	RequestBytes  float64
	ResponseBytes float64
	// QPS is the aggregate query rate across the serving hosts.
	QPS float64
}

// DefaultInference returns an LLM-serving-shaped spec.
func DefaultInference() InferenceSpec {
	return InferenceSpec{RequestBytes: 16 << 10, ResponseBytes: 2 << 20, QPS: 200}
}

// InferenceLoad drives request/response flows between client hosts and
// serving hosts on a fabric for the given duration and records response
// completion latencies.
type InferenceLoad struct {
	Net     *netsim.Sim
	Spec    InferenceSpec
	Clients []int
	Servers []int

	// Latency collects response flow-completion times (seconds).
	Latency metrics.Dist
	// Completed counts finished request/response exchanges.
	Completed int
	// FirstErr records the first request or response launch error. A
	// failed launch drops that exchange and arrivals continue; the caller
	// surfaces the error after the run.
	FirstErr error

	rng *sim.RNG
}

// NewInferenceLoad returns a generator over the given host sets. The
// spec's rate and message sizes must be positive.
func NewInferenceLoad(net *netsim.Sim, spec InferenceSpec, clients, servers []int, seed uint64) (*InferenceLoad, error) {
	if len(clients) == 0 || len(servers) == 0 {
		return nil, fmt.Errorf("workload: inference needs clients and servers")
	}
	if !(spec.QPS > 0 && spec.RequestBytes > 0 && spec.ResponseBytes > 0) {
		return nil, fmt.Errorf("workload: inference needs a positive QPS, RequestBytes and ResponseBytes (got %v, %v, %v)",
			spec.QPS, spec.RequestBytes, spec.ResponseBytes)
	}
	return &InferenceLoad{Net: net, Spec: spec, Clients: clients, Servers: servers, rng: sim.NewRNG(seed)}, nil
}

// Run schedules Poisson arrivals until the horizon; the caller drives the
// engine.
func (l *InferenceLoad) Run(until sim.Time) {
	var arrive func()
	arrive = func() {
		now := l.Net.Eng.Now()
		if now >= until {
			return
		}
		client := l.Clients[l.rng.Intn(len(l.Clients))]
		server := l.Servers[l.rng.Intn(len(l.Servers))]
		reqStart := now
		// Request up, response back; latency = full exchange.
		_, err := l.Net.StartFlow(
			route.Endpoint{Host: client, NIC: 0},
			route.Endpoint{Host: server, NIC: 0},
			l.Spec.RequestBytes,
			netsim.FlowOpts{SrcPort: -1, OnComplete: func(_ sim.Time, _ *netsim.Flow) {
				_, err := l.Net.StartFlow(
					route.Endpoint{Host: server, NIC: 0},
					route.Endpoint{Host: client, NIC: 0},
					l.Spec.ResponseBytes,
					netsim.FlowOpts{SrcPort: -1, OnComplete: func(end sim.Time, _ *netsim.Flow) {
						l.Completed++
						l.Latency.Add((end - reqStart).Seconds())
					}},
				)
				l.noteErr(err)
			}},
		)
		l.noteErr(err)
		gap := l.rng.Exp(1 / l.Spec.QPS)
		l.Net.Eng.Schedule(sim.Time(gap*float64(sim.Second)), arrive)
	}
	arrive()
}

// noteErr keeps the first launch error.
func (l *InferenceLoad) noteErr(err error) {
	if l.FirstErr == nil {
		l.FirstErr = err
	}
}
