package core

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"hpn/internal/netsim"
	"hpn/internal/route"
	"hpn/internal/telemetry"
	"hpn/internal/topo"
)

// The sampler's port gauges read the fabric's observed links without
// attaching a LinkProbe, so a sampled idle fabric can still open a memo
// window, and the gauges still see the traffic.
func TestSampledPortsAttachNoProbe(t *testing.T) {
	c, err := NewHPN(topo.SmallHPN(2, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.NewHub(telemetry.Options{SampleInterval: 1_000_000})
	c.EnableTelemetry(hub)
	if _, ok := c.Net.Mark(); !ok {
		t.Fatal("Mark refused on an idle sampled fabric")
	}
	for nic := 0; nic < 8; nic++ {
		if _, err := c.Net.StartFlow(route.Endpoint{Host: 0, NIC: nic}, route.Endpoint{Host: 4, NIC: nic},
			64<<20, netsim.FlowOpts{SrcPort: -1}); err != nil {
			t.Fatal(err)
		}
	}
	c.Eng.Run()
	var csv bytes.Buffer
	if err := hub.Registry.Export("samples.csv", &csv); err != nil {
		t.Fatal(err)
	}
	ports, peak := 0, 0.0
	for _, line := range strings.Split(csv.String(), "\n") {
		f := strings.Split(line, ",")
		if len(f) != 3 || !strings.HasSuffix(f[0], "/util_bps") {
			continue
		}
		ports++
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		peak = max(peak, v)
	}
	if ports == 0 || peak <= 0 {
		t.Fatalf("sampled %d ToR uplink util rows, peak %v bps; want traffic seen", ports, peak)
	}
}
