// Package experiment assembles full simulations of the paper's evaluation
// setup (§4.1): 75 nodes on a 500 m × 300 m plain, 75 m radio range,
// 2 Mb/s, a single-source multicast tree maintained by simplified BLESS,
// and a source at node 0 transmitting 500-byte packets at 5–120 packets/s
// in three mobility scenarios — then measures every §4.2/§4.3 metric.
package experiment

import (
	"errors"
	"fmt"
	"time"

	"rmac/internal/fault"
	"rmac/internal/geom"
	"rmac/internal/mac"
	"rmac/internal/mac/rmac"
	"rmac/internal/phy"
	"rmac/internal/routing"
	"rmac/internal/sim"
)

// Protocol selects the MAC under test.
type Protocol int

const (
	// RMAC is the paper's contribution (busy-tone reliable multicast).
	RMAC Protocol = iota
	// BMMM is the compared baseline (§2, Sun et al.).
	BMMM
	// BMW is the round-robin reliable broadcast baseline (§2, Tang &
	// Gerla); not in the paper's figures but implemented for the same
	// harness.
	BMW
	// LBP is the Leader Based Protocol (§2, Kuri & Kasera): one leader
	// acknowledges for the group, NAKs garble its ACK.
	LBP
	// MX is the simplified 802.11MX (§2, Gupta et al.):
	// receiver-initiated busy-tone NAK feedback.
	MX
	// DOT11 is plain IEEE 802.11 DCF (§1): reliable unicast only;
	// multicast/broadcast transmitted once with no recovery.
	DOT11
)

func (p Protocol) String() string {
	switch p {
	case RMAC:
		return "RMAC"
	case BMMM:
		return "BMMM"
	case BMW:
		return "BMW"
	case LBP:
		return "LBP"
	case MX:
		return "MX"
	case DOT11:
		return "802.11"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Scenario is one of the §4.1.2 mobility settings.
type Scenario int

const (
	// Stationary: no node is moving.
	Stationary Scenario = iota
	// Speed1: random waypoint, 0–4 m/s, 10 s pause.
	Speed1
	// Speed2: random waypoint, 0–8 m/s, 5 s pause.
	Speed2
)

func (s Scenario) String() string {
	switch s {
	case Stationary:
		return "stationary"
	case Speed1:
		return "speed1"
	case Speed2:
		return "speed2"
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// MaxSpeed returns the scenario's MAX-SPEED in m/s (0 when stationary).
func (s Scenario) MaxSpeed() float64 {
	switch s {
	case Speed1:
		return 4
	case Speed2:
		return 8
	}
	return 0
}

// Pause returns the scenario's INTER-PAUSE.
func (s Scenario) Pause() sim.Time {
	switch s {
	case Speed1:
		return 10 * sim.Second
	case Speed2:
		return 5 * sim.Second
	}
	return 0
}

// TopoKind selects the placement generator (see internal/topo).
type TopoKind int

const (
	// TopoConnected retries uniform placements until the disc graph is
	// connected — the paper's §4.1 setup and the default.
	TopoConnected TopoKind = iota
	// TopoUniform places nodes uniformly at random with no connectivity
	// retry; the only generator that scales to 100k nodes unconditionally.
	TopoUniform
	// TopoPoisson uses Poisson-disc (blue-noise) sampling at NodeSpacing
	// minimum distance: even density without clumps, the standard model
	// for planned large deployments.
	TopoPoisson
	// TopoMetro builds `Districts` dense clusters separated by
	// DistrictGap metres of empty ground — RF-decoupled city districts,
	// the showcase topology for sharded runs (see DESIGN.md §14).
	TopoMetro
)

func (t TopoKind) String() string {
	switch t {
	case TopoConnected:
		return "connected"
	case TopoUniform:
		return "uniform"
	case TopoPoisson:
		return "poisson"
	case TopoMetro:
		return "metro"
	}
	return fmt.Sprintf("TopoKind(%d)", int(t))
}

// TopoKinds maps generator names to kinds for the -topo flags.
var TopoKinds = map[string]TopoKind{
	"connected": TopoConnected,
	"uniform":   TopoUniform,
	"poisson":   TopoPoisson,
	"metro":     TopoMetro,
}

// Config describes one simulation run.
type Config struct {
	Protocol Protocol
	Scenario Scenario

	// Nodes and Field define the deployment (75 on 500×300 m).
	Nodes int
	Field geom.Rect

	// Topo selects the placement generator; NodeSpacing is the
	// Poisson-disc minimum distance (0 = auto from node count and field),
	// Districts/DistrictGap shape the metro generator (0 = Shards
	// districts / 1.5× interference-range gap).
	Topo        TopoKind
	NodeSpacing float64
	Districts   int
	DistrictGap float64

	// Shards, when > 1, runs the simulation on the sharded conservative
	// parallel engine: the field is partitioned into vertical strips, one
	// engine + goroutine per strip, synchronized by propagation-delay
	// lookahead (DESIGN.md §14) — conservative bounds over the nodes'
	// position envelopes, recomputed per mobility epoch (DESIGN.md §15).
	// Stationary nodes have envelope 0, so their bounds are the exact
	// pairwise delays and never need recomputing. 0 or 1 selects the
	// classic single-engine path; results for a fixed (Seed, Shards) pair
	// are bit-identical across reruns, and Shards ≤ 1 is bit-identical to
	// the unsharded engine.
	Shards int

	// ShardEpoch is the mobility epoch length of a sharded run: the
	// interval at which lookahead and border-band membership are
	// recomputed from conservative position envelopes. Shorter epochs give
	// tighter lookahead (less conservatism) but more epoch joins.
	// 0 = 1 s. Ignored when Shards ≤ 1 or the scenario is stationary
	// (nothing moves, so a stationary run has a single epoch).
	ShardEpoch sim.Time

	// Sources is the number of multicast source nodes (0 or 1 = the
	// paper's single source at node 0). Source d sits at node
	// d·Nodes/Sources; with TopoMetro and Sources == Districts that is
	// one source per district, giving every shard local traffic. Each
	// source generates Packets packets at Rate.
	Sources int
	// Phy carries radio parameters (75 m range, 2 Mb/s).
	Phy phy.Config
	// Limits carries MAC retry/queue policy.
	Limits mac.Limits
	// RMACOptions carries RMAC ablation switches (ignored by the
	// baselines).
	RMACOptions rmac.Options
	// Routing carries BLESS beacon timing.
	Routing routing.Config

	// Rate is the source rate in packets/second; Packets the total count;
	// PacketSize the payload length in bytes.
	Rate       float64
	Packets    int
	PacketSize int

	// Warmup lets the tree form before traffic; Drain lets queues empty
	// after the last generation.
	Warmup sim.Time
	Drain  sim.Time

	// Seed selects the node placement, mobility and contention RNG; runs
	// with equal seeds are bit-identical.
	Seed int64

	// Fault configures the impairment layer: Gilbert–Elliott bursty
	// channel errors and node churn. The zero value disables both and
	// leaves the run's RNG stream untouched.
	Fault fault.Config

	// MaxEvents and MaxWall arm the engine watchdog: a run exceeding
	// either budget is aborted and reports partial statistics with
	// RunResult.Aborted set. Zero disables the respective budget.
	MaxEvents uint64
	MaxWall   time.Duration

	// TraceCap, when positive, records the last TraceCap PHY events
	// (frames, tones) into RunResult.Trace.
	TraceCap int

	// Audit attaches the protocol-invariant auditor (internal/audit) to
	// the medium. The auditor is passive — a run with it enabled is
	// bit-identical to the same seed without it — so it defaults to on;
	// the command-line front ends expose a flag to disable it for
	// benchmarking the bare hot path.
	Audit bool

	// TimerStats attaches the per-horizon timer census (sim.TimerStats)
	// to every engine and reports their sum in RunResult.TimerStats.
	// Purely observational: event order is unchanged.
	TimerStats bool
}

// DefaultConfig returns the paper's §4.1 parameters with a scaled-down
// packet count (the full 10 000 is a flag away).
func DefaultConfig() Config {
	return Config{
		Protocol:   RMAC,
		Scenario:   Stationary,
		Nodes:      75,
		Field:      geom.Rect{W: 500, H: 300},
		Phy:        phy.DefaultConfig(),
		Limits:     mac.DefaultLimits(),
		Routing:    routing.DefaultConfig(),
		Rate:       20,
		Packets:    300,
		PacketSize: 500,
		Warmup:     10 * sim.Second,
		Drain:      10 * sim.Second,
		Seed:       1,
		Audit:      true,
	}
}

// Protocols lists every MAC under test in enum order; Protocol values
// index it, so per-protocol metric families can be dense arrays.
var Protocols = []Protocol{RMAC, BMMM, BMW, LBP, MX, DOT11}

// PaperRates are the eight source rates of §4.1.2, in packets/second.
var PaperRates = []float64{5, 10, 20, 40, 60, 80, 100, 120}

// Scenarios lists all three mobility scenarios.
var Scenarios = []Scenario{Stationary, Speed1, Speed2}

// Validate reports whether the configuration can be simulated. Run
// rejects invalid configurations with a Failed RunResult; the command-line
// front ends call Validate up front so flag mistakes exit non-zero with a
// message instead of starting a doomed simulation.
func (c Config) Validate() error {
	if c.Protocol < RMAC || c.Protocol > DOT11 {
		return fmt.Errorf("experiment: unknown protocol %v", c.Protocol)
	}
	if c.Scenario < Stationary || c.Scenario > Speed2 {
		return fmt.Errorf("experiment: unknown scenario %v", c.Scenario)
	}
	if c.Topo < TopoConnected || c.Topo > TopoMetro {
		return fmt.Errorf("experiment: unknown topology %v", c.Topo)
	}
	if c.Nodes < 2 {
		return fmt.Errorf("experiment: need at least 2 nodes, have %d", c.Nodes)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("experiment: source rate must be positive, have %g", c.Rate)
	}
	if c.Packets < 0 || c.PacketSize < 0 {
		return fmt.Errorf("experiment: negative traffic parameters (packets=%d size=%d)", c.Packets, c.PacketSize)
	}
	if c.Warmup < 0 || c.Drain < 0 {
		return fmt.Errorf("experiment: warm-up and drain must not be negative, have %v and %v", c.Warmup, c.Drain)
	}
	if c.Field.W <= 0 || c.Field.H <= 0 {
		return fmt.Errorf("experiment: field must have positive area, have %gx%g", c.Field.W, c.Field.H)
	}
	if p := c.Phy; p.CommRange <= 0 || p.BitRate <= 0 || p.PropSpeed <= 0 {
		return fmt.Errorf("experiment: radio range, bit rate and propagation speed must be positive, have %gm, %d b/s, %g m/s", p.CommRange, p.BitRate, p.PropSpeed)
	}
	if c.Limits.QueueCap <= 0 {
		return fmt.Errorf("experiment: MAC queue capacity must be positive, have %d", c.Limits.QueueCap)
	}
	if b := c.Fault.Burst; b.Enabled {
		if b.MeanGood <= 0 || b.MeanBad <= 0 {
			return errors.New("experiment: burst model needs positive mean sojourn times")
		}
		if b.BERGood < 0 || b.BERGood > 1 || b.BERBad < 0 || b.BERBad > 1 {
			return errors.New("experiment: burst BER values must be in [0,1]")
		}
	}
	if ch := c.Fault.Churn; ch.Enabled && (ch.MeanUp <= 0 || ch.MeanDown <= 0) {
		return errors.New("experiment: churn needs positive mean up/down times")
	}
	if c.Shards < 0 || c.Shards > sim.MaxShards {
		return fmt.Errorf("experiment: shards must be in [0,%d], have %d", sim.MaxShards, c.Shards)
	}
	if c.Shards > c.Nodes {
		return fmt.Errorf("experiment: %d shards exceed the %d nodes; every strip needs a node", c.Shards, c.Nodes)
	}
	if c.Shards > 1 {
		if c.ShardEpoch < 0 {
			return fmt.Errorf("experiment: shard epoch must not be negative, have %v", c.ShardEpoch)
		}
		// The per-epoch displacement envelope must fit inside a strip: a
		// node able to traverse a whole strip within one epoch would
		// overlap the border bands of non-adjacent shards and collapse
		// every pairwise lookahead toward the 1 ns floor. The mean strip
		// width is the a-priori bound (the data-dependent minimum is
		// checked against the actual cuts at build time). A stationary
		// envelope is 0 and always fits.
		if env, strip := c.shardEnvelope(), c.Field.W/float64(c.Shards); env >= strip {
			return fmt.Errorf("experiment: mobility envelope %.1fm (2 × %.0fm/s × %v epoch) must stay below the %.1fm mean strip width; shorten ShardEpoch or use fewer shards", env, c.Scenario.MaxSpeed(), c.shardEpoch(), strip)
		}
		if c.TraceCap > 0 {
			return errors.New("experiment: TraceCap is not supported with Shards > 1")
		}
	}
	if c.Sources < 0 || c.Sources > c.Nodes {
		return fmt.Errorf("experiment: sources must be in [0,%d], have %d", c.Nodes, c.Sources)
	}
	if c.NodeSpacing < 0 {
		return fmt.Errorf("experiment: node spacing must be non-negative, have %g", c.NodeSpacing)
	}
	if c.Topo == TopoMetro {
		d := c.metroDistricts()
		if gap := c.metroGap(); c.Field.W-gap*float64(d-1) <= 0 {
			return fmt.Errorf("experiment: %d metro districts with %gm gaps exceed the %gm field", d, gap, c.Field.W)
		}
	}
	return nil
}

// metroDistricts resolves the metro district count: explicit Districts,
// else one per shard, else one.
func (c Config) metroDistricts() int {
	if c.Districts > 0 {
		return c.Districts
	}
	if c.Shards > 1 {
		return c.Shards
	}
	return 1
}

// metroGap resolves the inter-district gap: explicit, else 1.5× the
// interference range — wide enough that no radio pair spans districts, so
// shards that follow district boundaries are fully RF-decoupled.
func (c Config) metroGap() float64 {
	if c.DistrictGap > 0 {
		return c.DistrictGap
	}
	ir := c.Phy.CommRange
	if f := c.Phy.InterferenceFactor; f > 1 {
		ir *= f
	}
	return 1.5 * ir
}

// sourceNodes lists the multicast source node ids (see Config.Sources).
func (c Config) sourceNodes() []int {
	k := c.Sources
	if k < 1 {
		k = 1
	}
	roots := make([]int, k)
	for d := range roots {
		roots[d] = d * c.Nodes / k
	}
	return roots
}

// shardEpoch resolves the mobility epoch length: explicit, else 1 s.
func (c Config) shardEpoch() sim.Time {
	if c.ShardEpoch > 0 {
		return c.ShardEpoch
	}
	return sim.Second
}

// shardEnvelope bounds how much any pairwise node distance can change
// within one mobility epoch of a sharded run: 2 × MaxSpeed × epoch, 0 when
// stationary.
func (c Config) shardEnvelope() float64 {
	return 2 * c.Scenario.MaxSpeed() * c.shardEpoch().Seconds()
}

// Horizon returns the simulated end time of the run.
func (c Config) Horizon() sim.Time {
	genSpan := sim.Time(float64(c.Packets) / c.Rate * float64(sim.Second))
	return c.Warmup + genSpan + c.Drain
}
