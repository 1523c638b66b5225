package params

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() invalid: %v", err)
	}
}

func TestDefaultMatchesPaper(t *testing.T) {
	m := Default()
	if got := m.CEs(); got != 32 {
		t.Errorf("CEs = %d, want 32", got)
	}
	// Peak 11.8 MFLOPS/CE -> 376 for the machine (paper: 376 absolute peak).
	if got := m.PeakMFLOPS(); math.Abs(got-376.47) > 0.5 {
		t.Errorf("PeakMFLOPS = %.2f, want ≈376", got)
	}
	// Effective peak after vector startup (paper: 274).
	if got := m.EffectivePeakMFLOPS(); math.Abs(got-274) > 4 {
		t.Errorf("EffectivePeakMFLOPS = %.2f, want ≈274", got)
	}
	// Unloaded global load round trip: 2 forward stages + memory pipeline +
	// 2 reverse stages + 1 consume cycle = 8 (the paper's minimal Latency),
	// plus the CE-side overhead completing the 13-cycle load latency.
	netMem := 2 + m.MemLatency + 2 + 1
	if netMem != 8 {
		t.Errorf("network+memory min latency = %d cycles, want 8", netMem)
	}
	if total := netMem + m.CELoadOverhead; total != 13 {
		t.Errorf("unloaded load latency = %d cycles, want 13", total)
	}
	// XDOALL startup ≈ 90 µs.
	if us := float64(m.XDoallStartup) * CycleNS / 1000; us < 55 || us > 100 {
		t.Errorf("XDoallStartup = %.1f µs, want ≈90", us)
	}
	// Iteration fetch ≈ 30 µs.
	if us := float64(m.XDoallFetchLock) * CycleNS / 1000; us < 25 || us > 35 {
		t.Errorf("XDoallFetchLock = %.1f µs, want ≈30", us)
	}
}

func TestScaled(t *testing.T) {
	for _, clusters := range []int{1, 2, 4, 8, 16} {
		m := Scaled(clusters)
		if err := m.Validate(); err != nil {
			t.Errorf("Scaled(%d) invalid: %v", clusters, err)
		}
		if m.CEs() != clusters*8 {
			t.Errorf("Scaled(%d).CEs = %d, want %d", clusters, m.CEs(), clusters*8)
		}
		if m.NetPorts < m.CEs() || m.NetPorts < m.MemModules {
			t.Errorf("Scaled(%d): network too small: %d ports", clusters, m.NetPorts)
		}
	}
	// A run configured for 4 clusters is the as-built machine, so
	// "-clusters 4" and no flag at all build (and key) the same thing.
	if Scaled(4) != Default() {
		t.Errorf("Scaled(4) = %+v, want Default()", Scaled(4))
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Machine)
	}{
		{"zero clusters", func(m *Machine) { m.Clusters = 0 }},
		{"zero CEs", func(m *Machine) { m.CEsPerCluster = 0 }},
		{"bad radix", func(m *Machine) { m.NetRadix = 1 }},
		{"ports not power of radix", func(m *Machine) { m.NetPorts = 48 }},
		{"network too small", func(m *Machine) { m.NetPorts = 8 }},
		{"no modules", func(m *Machine) { m.MemModules = 0; m.NetPorts = 8 }},
		{"zero queue", func(m *Machine) { m.NetQueueWords = 0 }},
		{"zero VL", func(m *Machine) { m.MaxVL = 0 }},
		{"zero page", func(m *Machine) { m.PageWords = 0 }},
		{"zero outstanding", func(m *Machine) { m.MaxOutstanding = 0 }},
		{"zero pfu", func(m *Machine) { m.PFUMaxOutstanding = 0 }},
	}
	for _, tc := range cases {
		m := Default()
		tc.mut(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
		}
	}
}

func TestMicrosToCycles(t *testing.T) {
	if got := MicrosToCycles(90); got < 525 || got > 533 {
		t.Errorf("MicrosToCycles(90) = %d, want ≈529", got)
	}
	if got := MicrosToCycles(0); got != 0 {
		t.Errorf("MicrosToCycles(0) = %d, want 0", got)
	}
}

func TestCyclesToSeconds(t *testing.T) {
	// 5,882,353 cycles ≈ 1 second.
	cps := CyclesPerSecond
	got := CyclesToSeconds(int64(cps))
	if math.Abs(got-1.0) > 1e-6 {
		t.Errorf("CyclesToSeconds(1s worth) = %v, want 1.0", got)
	}
}

func TestMFLOPS(t *testing.T) {
	// 2 flops/cycle should be the 11.76 MFLOPS peak.
	got := MFLOPS(2_000_000, 1_000_000)
	if math.Abs(got-11.76) > 0.05 {
		t.Errorf("MFLOPS(2M flops, 1M cycles) = %.3f, want ≈11.76", got)
	}
	if MFLOPS(100, 0) != 0 {
		t.Error("MFLOPS with zero cycles should be 0")
	}
}

func TestIsPowerOf(t *testing.T) {
	cases := []struct {
		base, n int
		want    bool
	}{
		{8, 1, true}, {8, 8, true}, {8, 64, true}, {8, 512, true},
		{8, 2, false}, {8, 48, false}, {8, 0, false}, {8, -8, false},
		{2, 1024, true}, {2, 1023, false},
	}
	for _, c := range cases {
		if got := isPowerOf(c.base, c.n); got != c.want {
			t.Errorf("isPowerOf(%d,%d) = %v, want %v", c.base, c.n, got, c.want)
		}
	}
}

func TestNextPowerOfProperty(t *testing.T) {
	f := func(n uint16) bool {
		v := int(n%5000) + 1
		p := nextPowerOf(8, v)
		return p >= v && isPowerOf(8, p) && (p == 1 || p/8 < v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMFLOPSRoundTripProperty(t *testing.T) {
	// MFLOPS(f, c) * seconds(c) ≈ f/1e6 for all positive inputs.
	f := func(fl, cy uint32) bool {
		flops := int64(fl%1_000_000) + 1
		cycles := int64(cy%10_000_000) + 1
		mf := MFLOPS(flops, cycles)
		sec := CyclesToSeconds(cycles)
		return math.Abs(mf*sec-float64(flops)/1e6) < 1e-9*float64(flops)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPaperConstants(t *testing.T) {
	// The named paper figures are what cedarvet's paramhygiene check
	// points violators at; pin them so they cannot drift silently.
	if WordBytes != 8 {
		t.Errorf("WordBytes = %d, want 8", WordBytes)
	}
	if WiringPeakMBps != 768.0 {
		t.Errorf("WiringPeakMBps = %v, want 768", WiringPeakMBps)
	}
	if GlobalLoadLatency != 13 {
		t.Errorf("GlobalLoadLatency = %v, want the paper's 13 cycles", GlobalLoadLatency)
	}
	d := Default()
	if d.PFUBufferWords != 512 || d.PFUMaxOutstanding != 512 {
		t.Errorf("PFU depth = %d/%d, want the paper's 512", d.PFUBufferWords, d.PFUMaxOutstanding)
	}
}

func TestClusterPresets(t *testing.T) {
	for _, tc := range []struct {
		name            string
		m               Machine
		clusters, ports int
	}{
		{"Cedar16", Cedar16(), 16, 512},
		{"Cedar64", Cedar64(), 64, 512},
	} {
		if err := tc.m.Validate(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.m.Clusters != tc.clusters {
			t.Errorf("%s: Clusters = %d, want %d", tc.name, tc.m.Clusters, tc.clusters)
		}
		// The omega widens with cluster count: the as-built 64-port
		// two-stage fabric grows a third stage for both presets.
		if tc.m.NetPorts != tc.ports {
			t.Errorf("%s: NetPorts = %d, want %d", tc.name, tc.m.NetPorts, tc.ports)
		}
		if tc.m.NetPorts < tc.m.CEs() || tc.m.NetPorts < tc.m.MemModules {
			t.Errorf("%s: network narrower than the machine: %d ports, %d CEs, %d modules",
				tc.name, tc.m.NetPorts, tc.m.CEs(), tc.m.MemModules)
		}
	}
}
