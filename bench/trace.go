package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"rmac/internal/app"
	"rmac/internal/audit"
	"rmac/internal/experiment"
	"rmac/internal/fault"
	"rmac/internal/frame"
	"rmac/internal/mac"
	"rmac/internal/mac/bmmm"
	"rmac/internal/mac/bmw"
	"rmac/internal/mac/dot11"
	"rmac/internal/mac/lbp"
	"rmac/internal/mac/mx"
	"rmac/internal/mac/rmac"
	"rmac/internal/mobility"
	"rmac/internal/phy"
	"rmac/internal/routing"
	"rmac/internal/sim"
	"rmac/internal/stats"
	"rmac/internal/topo"
)

// The traced pass measures wall time per layer from outside the program:
// it rebuilds the unsharded stack of experiment.Run from the public
// constructors, interposes a timing wrapper at every layer boundary it can
// reach, and steps the engine one event at a time so each dispatch is
// timed and attributed to the package of its callee.

type layer int

const (
	layerSim layer = iota
	layerPhy
	layerMAC
	layerRouting
	layerApp
	layerAudit
	numLayers
)

var layerNames = [numLayers]string{"sim", "phy", "mac", "routing", "app", "audit"}

// tracer keeps a stack of open layer spans and charges the time between
// two boundary crossings to the layer on top: one clock read per
// crossing, so a layer's self time excludes the spans nested in it. The
// bottom of the stack is sim: the stepping loop itself.
type tracer struct {
	base       time.Time
	last       time.Duration
	stack      []layer
	self       [numLayers]time.Duration
	calls      [numLayers]uint64
	timerCalls uint64
	byType     map[reflect.Type]layer
	err        error
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), stack: []layer{layerSim}, byType: map[reflect.Type]layer{}}
}

func (t *tracer) enter(l layer) {
	now := time.Since(t.base)
	t.self[t.stack[len(t.stack)-1]] += now - t.last
	t.last = now
	t.stack = append(t.stack, l)
	t.calls[l]++
}

func (t *tracer) exit() {
	now := time.Since(t.base)
	t.self[t.stack[len(t.stack)-1]] += now - t.last
	t.last = now
	t.stack = t.stack[:len(t.stack)-1]
}

// dispatchLayer attributes an engine dispatch to its Caller's package.
// *sim.Timer counts as mac: every sim.NewTimer in the stack is a MAC's.
func (t *tracer) dispatchLayer(c sim.Caller) layer {
	if _, ok := c.(*sim.Timer); ok {
		t.timerCalls++
		return layerMAC
	}
	typ := reflect.TypeOf(c)
	if l, ok := t.byType[typ]; ok {
		return l
	}
	if typ.Kind() == reflect.Pointer {
		typ = typ.Elem()
	}
	pkg := strings.TrimPrefix(typ.PkgPath(), "rmac/internal/")
	l := layerSim
	switch {
	case pkg == "phy":
		l = layerPhy
	case pkg == "mac" || strings.HasPrefix(pkg, "mac/"):
		l = layerMAC
	case pkg == "routing":
		l = layerRouting
	case pkg == "app":
		l = layerApp
	case pkg == "audit":
		l = layerAudit
	default:
		if t.err == nil {
			t.err = fmt.Errorf("unattributed event caller %v", reflect.TypeOf(c))
		}
	}
	t.byType[reflect.TypeOf(c)] = l
	return l
}

// drive runs the engine to horizon one event at a time through the
// public stepping API, timing every dispatch; sim's call count is the
// number of dispatches. The final Run call finds no
// event left before the horizon: it only advances the clock and runs the
// quiesce audits, exactly as the end of an untraced Run does.
func (t *tracer) drive(eng *sim.Engine, horizon sim.Time) error {
	t.last = time.Since(t.base) // the build before this run is not traced
	for {
		at := eng.NextLowerBound()
		if at > horizon {
			break
		}
		c, tag, ok := eng.PeekCall(at)
		if !ok {
			return fmt.Errorf("event at %v is not a tagged call; the traced pass cannot step it", at)
		}
		eng.TakeNext()
		t.calls[layerSim]++
		t.enter(t.dispatchLayer(c))
		c.Call(tag)
		t.exit()
	}
	eng.Run(horizon)
	return t.err
}

// handlerSpan wraps a MAC's PHY indication sink: PHY → MAC upcalls are mac.
type handlerSpan struct {
	t *tracer
	h phy.Handler
}

func (s *handlerSpan) OnFrameReceived(f frame.Frame, ok bool, rxStart sim.Time) {
	s.t.enter(layerMAC)
	s.h.OnFrameReceived(f, ok, rxStart)
	s.t.exit()
}

func (s *handlerSpan) OnCarrierChange(busy bool) {
	s.t.enter(layerMAC)
	s.h.OnCarrierChange(busy)
	s.t.exit()
}

func (s *handlerSpan) OnToneChange(tone phy.Tone, sensed bool) {
	s.t.enter(layerMAC)
	s.h.OnToneChange(tone, sensed)
	s.t.exit()
}

func (s *handlerSpan) OnTxDone(f frame.Frame) {
	s.t.enter(layerMAC)
	s.h.OnTxDone(f)
	s.t.exit()
}

// macSpan is the MAC as routing and app see it: Send is mac, and the
// upper layer app.NewNode installs through it is wrapped in an appSpan.
type macSpan struct {
	t     *tracer
	m     mac.MAC
	upper *appSpan
}

func (s *macSpan) Addr() frame.Addr  { return s.m.Addr() }
func (s *macSpan) Stats() *mac.Stats { return s.m.Stats() }
func (s *macSpan) SetUpper(u mac.UpperLayer) {
	s.upper = &appSpan{t: s.t, u: u}
	s.m.SetUpper(s.upper)
}

func (s *macSpan) Send(req *mac.SendRequest) bool {
	s.t.enter(layerMAC)
	ok := s.m.Send(req)
	s.t.exit()
	return ok
}

// appSpan wraps app.Node, the innermost upper layer: a beacon payload is
// routing work, anything else app work.
type appSpan struct {
	t *tracer
	u mac.UpperLayer
}

func payloadLayer(p []byte) layer {
	if len(p) > 0 && p[0] == routing.BeaconMagic {
		return layerRouting
	}
	return layerApp
}

func (s *appSpan) OnDeliver(payload []byte, info mac.RxInfo) {
	s.t.enter(payloadLayer(payload))
	s.u.OnDeliver(payload, info)
	s.t.exit()
}

func (s *appSpan) OnSendComplete(res mac.TxResult) {
	s.t.enter(payloadLayer(res.Req.Payload))
	s.u.OnSendComplete(res)
	s.t.exit()
}

// auditUpperSpan wraps the auditor's at-most-once delivery shim.
type auditUpperSpan struct {
	t *tracer
	u mac.UpperLayer
}

func (s *auditUpperSpan) OnDeliver(payload []byte, info mac.RxInfo) {
	s.t.enter(layerAudit)
	s.u.OnDeliver(payload, info)
	s.t.exit()
}

func (s *auditUpperSpan) OnSendComplete(res mac.TxResult) {
	s.t.enter(layerAudit)
	s.u.OnSendComplete(res)
	s.t.exit()
}

// obsSpan wraps the auditor's medium observer.
type obsSpan struct {
	t *tracer
	o phy.Observer
}

func (s *obsSpan) ObsTxStart(r *phy.Radio, f frame.Frame) {
	s.t.enter(layerAudit)
	s.o.ObsTxStart(r, f)
	s.t.exit()
}

func (s *obsSpan) ObsTxEnd(r *phy.Radio, f frame.Frame) {
	s.t.enter(layerAudit)
	s.o.ObsTxEnd(r, f)
	s.t.exit()
}

func (s *obsSpan) ObsTxAbort(r *phy.Radio, f frame.Frame) {
	s.t.enter(layerAudit)
	s.o.ObsTxAbort(r, f)
	s.t.exit()
}

func (s *obsSpan) ObsRxEnd(r, src *phy.Radio, f frame.Frame, ok, sensed bool) {
	s.t.enter(layerAudit)
	s.o.ObsRxEnd(r, src, f, ok, sensed)
	s.t.exit()
}

func (s *obsSpan) ObsToneSet(r *phy.Radio, tone phy.Tone, on bool) {
	s.t.enter(layerAudit)
	s.o.ObsToneSet(r, tone, on)
	s.t.exit()
}

func (s *obsSpan) ObsDown(r *phy.Radio, down bool) {
	s.t.enter(layerAudit)
	s.o.ObsDown(r, down)
	s.t.exit()
}

// mirror is the traced copy of experiment.Run's unsharded network.
type mirror struct {
	cfg       experiment.Config
	eng       *sim.Engine
	medium    *phy.Medium
	macs      []mac.MAC
	routers   []*routing.Protocol
	metrics   *app.Metrics
	injector  *fault.Injector
	aud       *audit.Auditor
	deadlocks []experiment.Deadlock
}

// newMirror builds cfg's network in the same order, and so with the same
// random draws, as experiment.Run, with the tracer's wrappers in place. It
// repeats experiment's unexported build, as collect repeats its result
// reduction; TestMirrorMatchesRun and the fingerprint check of every
// traced run catch the copies drifting from the originals.
func newMirror(cfg experiment.Config, t *tracer) *mirror {
	eng := sim.NewEngine(cfg.Seed)
	medium := phy.NewMedium(eng, cfg.Phy)
	pl := placement(cfg)
	roots := map[int]bool{}
	nsrc := max(cfg.Sources, 1)
	for d := 0; d < nsrc; d++ {
		roots[d*cfg.Nodes/nsrc] = true
	}
	n := &mirror{cfg: cfg, eng: eng, medium: medium, metrics: &app.Metrics{Nodes: cfg.Nodes}}
	if cfg.Audit {
		n.aud = audit.New(eng, medium, audit.Config{
			MaxFrameAirtime: cfg.Phy.TxDuration(frame.RMACDataOverhead + cfg.PacketSize + 64),
		})
		medium.Obs = &obsSpan{t: t, o: medium.Obs}
	}
	apps := make([]*app.Node, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		var mob mobility.Model
		if cfg.Scenario == experiment.Stationary {
			mob = mobility.Stationary{P: pl.Points[i]}
		} else {
			nodeRNG := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
			mob = mobility.NewRandomWaypoint(cfg.Field, 0, cfg.Scenario.MaxSpeed(), cfg.Scenario.Pause(), pl.Points[i], nodeRNG)
		}
		radio := medium.AddRadio(i, mob)
		var m mac.MAC
		switch cfg.Protocol {
		case experiment.RMAC:
			m = rmac.NewWithOptions(radio, cfg.Phy, eng, cfg.Limits, cfg.RMACOptions)
		case experiment.BMMM:
			m = bmmm.New(radio, cfg.Phy, eng, cfg.Limits)
		case experiment.BMW:
			m = bmw.New(radio, cfg.Phy, eng, cfg.Limits)
		case experiment.LBP:
			m = lbp.New(radio, cfg.Phy, eng, cfg.Limits)
		case experiment.MX:
			m = mx.New(radio, cfg.Phy, eng, cfg.Limits)
		case experiment.DOT11:
			m = dot11.New(radio, cfg.Phy, eng, cfg.Limits)
		}
		radio.SetHandler(&handlerSpan{t: t, h: m.(phy.Handler)})
		ms := &macSpan{t: t, m: m}
		rt := routing.New(eng, ms, i, roots[i], cfg.Routing)
		apps[i] = app.NewNode(eng, ms, rt, i, n.metrics)
		rt.Start()
		if n.aud != nil {
			n.aud.RegisterMAC(i, m)
			if s, ok := m.(interface{ SetAuditor(*audit.Auditor) }); ok {
				s.SetAuditor(n.aud)
			}
			m.SetUpper(&auditUpperSpan{t: t, u: n.aud.WrapUpper(i, ms.upper)})
		}
		n.macs = append(n.macs, m)
		n.routers = append(n.routers, rt)
	}
	for d := 0; d < nsrc; d++ {
		s := app.NewSource(apps[d*cfg.Nodes/nsrc], cfg.Rate, cfg.Packets, cfg.PacketSize)
		s.Start(cfg.Warmup)
	}
	n.injector = fault.New(eng, medium, cfg.Fault)
	eng.QuiesceAudit = func() {
		n.deadlocks = nil
		for i, m := range n.macs {
			if lr, ok := m.(mac.LivenessReporter); ok {
				if l := lr.Liveness(); !l.Idle && !l.Pending {
					n.deadlocks = append(n.deadlocks, experiment.Deadlock{Node: i, State: l.State})
				}
			}
		}
		n.aud.Quiesce()
	}
	return n
}

// collect reduces the mirror's state to the RunResult fields that
// Fingerprint digests, the way experiment.Run does.
func (n *mirror) collect() experiment.RunResult {
	res := experiment.RunResult{
		Config:      n.cfg,
		Metrics:     *n.metrics,
		Delivery:    n.metrics.DeliveryRatio(),
		AvgDelay:    n.metrics.AvgDelay(),
		MRTSLens:    &stats.Sample{},
		AbortRatios: &stats.Sample{},
		Events:      n.eng.Processed,
		Fault:       n.injector.Stats,
		Crashes:     n.medium.Stats.Crashes,
		Deadlocks:   n.deadlocks,
		Violations:  n.aud.Violations(),
	}
	if n.aud != nil {
		res.ViolationCount = n.aud.Count
	}
	var drop, retx, ovh stats.Sample
	for _, m := range n.macs {
		s := m.Stats()
		if !s.NonLeaf() {
			continue
		}
		res.NonLeafCount++
		drop.Add(stats.Ratio(float64(s.Drops+s.QueueDrops), float64(s.ReliableToTransmit+s.QueueDrops)))
		retx.Add(s.RetxRatio())
		if s.DataTxTime > 0 {
			ovh.Add(s.OverheadRatio())
		}
		res.AbortRatios.Add(s.AbortRatio())
		for _, l := range s.MRTSLens {
			res.MRTSLens.Add(float64(l))
		}
	}
	res.AvgDropRatio = drop.Mean()
	res.AvgRetxRatio = retx.Mean()
	res.AvgOverheadRatio = ovh.Mean()
	parent := make([]int, n.cfg.Nodes)
	for i, rt := range n.routers {
		parent[i] = rt.Parent()
	}
	res.Tree = topo.AnalyzeTree(parent, 0)
	return res
}

// tracedRun runs cfg (unsharded) on the traced mirror. The tracer
// accumulates across calls.
func tracedRun(cfg experiment.Config, t *tracer) (experiment.RunResult, error) {
	n := newMirror(cfg, t)
	if err := t.drive(n.eng, cfg.Horizon()); err != nil {
		return experiment.RunResult{}, err
	}
	return n.collect(), nil
}
