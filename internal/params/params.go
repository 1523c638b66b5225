// Package params holds the machine parameters of the Cedar multiprocessor
// as published in "The Cedar System and an Initial Performance Study"
// (ISCA 1993) and its companion CSRD reports.
//
// All time constants are expressed in CE instruction cycles. One CE cycle
// is 170 ns, so 1 µs ≈ 5.88 cycles and the peak vector rate of 2 flops per
// cycle equals the paper's 11.8 MFLOPS per CE.
package params

import "fmt"

// CycleNS is the CE instruction cycle time in nanoseconds.
const CycleNS = 170.0

// CyclesPerSecond is the CE clock rate (≈5.88 MHz).
const CyclesPerSecond = 1e9 / CycleNS

// WordBytes is the machine word size in bytes: Cedar moves 64-bit words
// everywhere (memory interleave, network flits, prefetch buffer slots).
const WordBytes = 8

// WiringPeakMBps is the global-memory wiring peak the paper quotes
// (768 MB/s); the [GJTV91] characterization sustained ≈500 MB/s, which
// Machine.MemService is calibrated to reproduce.
const WiringPeakMBps = 768.0

// GlobalLoadLatency is the unloaded CE-to-global-memory load latency in
// cycles as quoted by the paper (13 cycles end to end: network transit
// both ways, module access, and the CE-side transfer). The simulator
// derives its timing from the component costs in Machine; this named
// figure exists so documentation, reports and tests never hardcode "13".
const GlobalLoadLatency = 13

// Machine describes a Cedar configuration. The zero value is not useful;
// start from Default() and override fields as needed.
type Machine struct {
	// Topology.
	Clusters      int // number of Alliant FX/8 clusters (Cedar: 4)
	CEsPerCluster int // computational elements per cluster (8)

	// Global interconnection network (forward and reverse are identical).
	NetRadix      int // crossbar switch arity (8 × 8)
	NetQueueWords int // words of queueing per switch input and output port (2)
	NetPorts      int // ports per network; must be a power of NetRadix and ≥ CEs and ≥ MemModules

	// Global memory.
	MemModules    int // interleaved memory modules (32)
	MemLatency    int // module access latency in cycles (pipelined)
	MemService    int // cycles between successive initiations in one module; 3 CE cycles (≈510 ns DRAM cycle) reproduces the ≈500 MB/s the memory characterization study [GJTV91] observed, below the 768 MB/s wiring peak
	SyncOpLatency int // extra cycles for a synchronization-processor operation

	// CE-side global access.
	CELoadOverhead int // cycles to move a word between network port and CE/prefetch buffer
	MaxOutstanding int // outstanding global requests per CE without the PFU (2)

	// Prefetch unit.
	PFUMaxOutstanding int // requests the PFU issues without pausing (512)
	PFUBufferWords    int // prefetch buffer capacity (512)

	// Vector unit.
	MaxVL         int // vector register length in words (32)
	VectorStartup int // pipeline fill cycles per vector instruction

	// Cluster cache and memory.
	CacheBytes       int // shared cache size (512 KB)
	CacheLineBytes   int // line size (32 B)
	CacheWays        int // set associativity (1 = direct mapped)
	CacheWordsPerCyc int // cluster cache bandwidth in words/cycle (8)
	CacheHitLatency  int // cycles for a hit
	CacheMissPerCE   int // outstanding misses allowed per CE (2)
	CMemLatency      int // cluster memory access latency
	CMemWordsPerCyc  int // cluster memory bandwidth in words/cycle (4 = half cache)

	// Virtual memory.
	PageWords    int // page size in 8-byte words (4 KB = 512 words)
	TLBMissCost  int // cycles for a TLB/PTE fault taken by a cluster
	PageFaultMul int // multiplier applied when faults thrash (TRFD study)

	// Runtime library costs (cycles).
	XDoallStartup    int // XDOALL library startup path; with flag release and polling the measured loop startup is ≈90-100 µs
	XDoallFetchLock  int // per-iteration fetch without Cedar sync (≈30 µs ≈ 176 cycles)
	CDoallStart      int // CDOALL concurrent-start (few µs on the CC bus)
	CCBusClaim       int // self-schedule claim on the concurrency control bus
	BarrierClusterCy int // intra-cluster barrier via CC bus
}

// Default returns the Cedar machine as built and published in 1993: four
// 8-CE clusters, a 64-port two-stage omega network of 8×8 crossbars, and
// 32 interleaved global memory modules. It means the same machine in
// every process; a run on a wider machine says so explicitly (Scaled).
// Three published figures no mechanism reads have no field: the cluster
// cache's four-bank interleave, the 32 MB of cluster memory and the
// 64 MB of global memory.
func Default() Machine {
	return Machine{
		Clusters:      4,
		CEsPerCluster: 8,

		NetRadix:      8,
		NetQueueWords: 2,
		NetPorts:      64,

		MemModules:    32,
		MemLatency:    3,
		MemService:    3,
		SyncOpLatency: 2,

		CELoadOverhead: 5,
		MaxOutstanding: 2,

		PFUMaxOutstanding: 512,
		PFUBufferWords:    512,

		MaxVL:         32,
		VectorStartup: 12,

		CacheBytes:       512 << 10,
		CacheLineBytes:   32,
		CacheWays:        1,
		CacheWordsPerCyc: 8,
		CacheHitLatency:  2,
		CacheMissPerCE:   2,
		CMemLatency:      10,
		CMemWordsPerCyc:  4,

		PageWords:    512,
		TLBMissCost:  300,
		PageFaultMul: 4,

		XDoallStartup:    500,
		XDoallFetchLock:  176,
		CDoallStart:      24,
		CCBusClaim:       2,
		BarrierClusterCy: 16,
	}
}

// Scaled returns a Cedar-like machine scaled to the given cluster count,
// growing the network and memory system proportionally (the PPT5 probe).
func Scaled(clusters int) Machine {
	m := Default()
	m.Clusters = clusters
	ces := clusters * m.CEsPerCluster
	m.NetPorts = nextPowerOf(m.NetRadix, ces)
	m.MemModules = ces
	return m
}

// Cedar16 is the 16-cluster scale-up preset: 128 CEs behind a 512-port
// three-stage omega (the fabric widens with cluster count: one more
// rank of 8×8 crossbars than the as-built two-stage network) and 128
// interleaved memory modules. Only tests name it; it stays as a public
// preset, the name the docs give Scaled(16).
func Cedar16() Machine { return Scaled(16) }

// Cedar64 is the 64-cluster scale-up preset: 512 CEs, a 512-port
// three-stage omega running at full port occupancy, and 512 memory
// modules — the largest configuration whose network the 8×8 switch
// family reaches in three stages. Only tests name it; it stays as a
// public preset, the name the docs give Scaled(64).
func Cedar64() Machine { return Scaled(64) }

// CEs returns the total number of computational elements.
func (m Machine) CEs() int { return m.Clusters * m.CEsPerCluster }

// PeakMFLOPS returns the absolute machine peak in MFLOPS
// (2 flops/cycle/CE; 376 MFLOPS for the 32-CE Cedar).
func (m Machine) PeakMFLOPS() float64 {
	return float64(m.CEs()) * 2 * CyclesPerSecond / 1e6
}

// EffectivePeakMFLOPS returns the peak after unavoidable vector startup on
// MaxVL-element strips (274 MFLOPS for the 32-CE Cedar).
func (m Machine) EffectivePeakMFLOPS() float64 {
	perElem := float64(m.MaxVL+m.VectorStartup) / float64(m.MaxVL)
	return m.PeakMFLOPS() / perElem
}

// Validate reports a descriptive error if the configuration is internally
// inconsistent (for example, a network too small for the processor count).
func (m Machine) Validate() error {
	switch {
	case m.Clusters < 1:
		return fmt.Errorf("params: Clusters must be ≥ 1, got %d", m.Clusters)
	case m.CEsPerCluster < 1:
		return fmt.Errorf("params: CEsPerCluster must be ≥ 1, got %d", m.CEsPerCluster)
	case m.NetRadix < 2:
		return fmt.Errorf("params: NetRadix must be ≥ 2, got %d", m.NetRadix)
	case !isPowerOf(m.NetRadix, m.NetPorts):
		return fmt.Errorf("params: NetPorts (%d) must be a power of NetRadix (%d)", m.NetPorts, m.NetRadix)
	case m.NetPorts < m.CEs():
		return fmt.Errorf("params: NetPorts (%d) smaller than CE count (%d)", m.NetPorts, m.CEs())
	case m.NetPorts < m.MemModules:
		return fmt.Errorf("params: NetPorts (%d) smaller than MemModules (%d)", m.NetPorts, m.MemModules)
	case m.MemModules < 1:
		return fmt.Errorf("params: MemModules must be ≥ 1, got %d", m.MemModules)
	case m.NetQueueWords < 1:
		return fmt.Errorf("params: NetQueueWords must be ≥ 1, got %d", m.NetQueueWords)
	case m.MaxVL < 1:
		return fmt.Errorf("params: MaxVL must be ≥ 1, got %d", m.MaxVL)
	case m.PageWords < 1:
		return fmt.Errorf("params: PageWords must be ≥ 1, got %d", m.PageWords)
	case m.MaxOutstanding < 1:
		return fmt.Errorf("params: MaxOutstanding must be ≥ 1, got %d", m.MaxOutstanding)
	case m.PFUMaxOutstanding < 1:
		return fmt.Errorf("params: PFUMaxOutstanding must be ≥ 1, got %d", m.PFUMaxOutstanding)
	}
	return nil
}

// MicrosToCycles converts microseconds to CE cycles, rounding to nearest.
func MicrosToCycles(us float64) int {
	return int(us*1000/CycleNS + 0.5)
}

// CyclesToSeconds converts a cycle count to wall-clock seconds on Cedar.
func CyclesToSeconds(cycles int64) float64 {
	return float64(cycles) * CycleNS / 1e9
}

// MFLOPS computes the rate for a flop count over a cycle count.
func MFLOPS(flops, cycles int64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(flops) / (float64(cycles) * CycleNS / 1e3)
}

func isPowerOf(base, n int) bool {
	if n < 1 {
		return false
	}
	for n > 1 {
		if n%base != 0 {
			return false
		}
		n /= base
	}
	return true
}

func nextPowerOf(base, n int) int {
	p := 1
	for p < n {
		p *= base
	}
	return p
}
