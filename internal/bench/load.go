package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
	"sgxelide/internal/sdk"
)

// loadCfg sizes the open-loop load scenario: restores protocol runs
// arrive at a fixed rate against one TCP authentication server,
// regardless of how fast earlier runs complete. Open-loop arrival is the
// point — a closed loop (start the next restore when the last returns)
// self-throttles exactly when the server slows down, hiding the latency
// the paper's users would actually see.
//
// Each arrival is a full protocol run over its own TCP connection —
// attest with a platform-signed quote, derive the channel key, fetch
// metadata and data — but driven by a Go protocol client rather than an
// enclave ecall, so one process can offer tens of thousands of restores.
// The enclave is loaded once, for quote generation.
type loadCfg struct {
	rate        float64       // arrivals per second
	restores    int           // total arrivals per protocol run
	maxSessions int           // server concurrent-session cap
	timeout     time.Duration // per-restore deadline
}

var loadFull = loadCfg{rate: 500, restores: 10000, maxSessions: 1024, timeout: 30 * time.Second}

// LoadRunResult is one protocol variant's slice of the load benchmark.
type LoadRunResult struct {
	Protocol  string  `json:"protocol"` // "pipelined" or "legacy"
	Offered   int     `json:"offered"`
	Completed int     `json:"completed"`
	Errors    int     `json:"errors"`
	WallMs    float64 `json:"wall_ms"`

	// AchievedRPS is completions over the whole run wall time; under an
	// overloaded server it falls below the offered rate.
	AchievedRPS float64 `json:"achieved_rps"`

	// FlightsPerRestore is the mean network round trips one restore took
	// (client.flights / completed): the pipelined protocol's headline
	// number is 1, the legacy protocol's is 3 (attest, meta, data).
	FlightsPerRestore float64 `json:"flights_per_restore"`

	Latency LoadLatency `json:"latency"`

	// ThroughputRPS is the completion rate per one-second bucket across
	// the run — the throughput curve.
	ThroughputRPS []float64 `json:"throughput_rps"`

	Overloaded     uint64            `json:"overloaded"` // runs shed by server backpressure
	ClientCounters map[string]uint64 `json:"client_counters"`
	ServerCounters map[string]uint64 `json:"server_counters"`

	// PhaseLatency attributes latency per protocol phase per hop
	// ("client" and "server"), from the span records both sides' tracers
	// retained. At high restore counts this is a recent-window sample:
	// each hop's ring holds the last obs.DefaultSpanRing completed spans.
	PhaseLatency map[string]map[string]LatencySummary `json:"phase_latency,omitempty"`
}

// LoadLatency is the end-to-end restore latency distribution, in
// microseconds, measured from arrival (not dial: queueing delay inside
// the client counts, as it would for a user).
type LoadLatency struct {
	LatencySummary
	P999Us float64 `json:"p999_us"`
}

// LoadBenchResult is the JSON document elide-bench writes to
// BENCH_load.json.
type LoadBenchResult struct {
	Program     string  `json:"program"`
	RateRPS     float64 `json:"offered_rate_rps"`
	Restores    int     `json:"restores"`
	MaxSessions int     `json:"max_sessions"`

	Pipelined *LoadRunResult `json:"pipelined"`
	Legacy    *LoadRunResult `json:"legacy"`

	// P50SpeedupX is legacy p50 latency over pipelined p50 latency —
	// the round-trip collapse measured, not asserted.
	P50SpeedupX float64 `json:"p50_speedup_x,omitempty"`
}

func (r *LoadBenchResult) String() string {
	line := func(run *LoadRunResult) string {
		return fmt.Sprintf(
			"  %-9s %d/%d ok (%d err, %d shed) in %.0f ms: %.0f rps, %.2f flights/restore, p50 %.0fµs p99 %.0fµs",
			run.Protocol, run.Completed, run.Offered, run.Errors, run.Overloaded, run.WallMs,
			run.AchievedRPS, run.FlightsPerRestore, run.Latency.P50Us, run.Latency.P99Us)
	}
	return fmt.Sprintf("load bench: %s, %d restores offered at %.0f rps (cap %d)\n%s\n%s\n  pipelined p50 speedup: %.2fx",
		r.Program, r.Restores, r.RateRPS, r.MaxSessions, line(r.Pipelined), line(r.Legacy), r.P50SpeedupX)
}

// loadBench builds Sha1, serves it over TCP, and offers cfg.restores
// protocol runs at cfg.rate arrivals/second — once with the pipelined
// (ProtoV1) protocol and once with the paper's sequential three-flight
// protocol, each against a fresh server, so the two runs compare
// round-trip counts and latency under identical load.
func loadBench(env *Env, cfg loadCfg) (*LoadBenchResult, error) {
	f, err := newFleet(env, elide.SanitizeOptions{}, Sha1)
	if err != nil {
		return nil, err
	}
	// One enclave load supplies quotes for every simulated machine: the
	// quote binds the per-run ECDH key through report data, so each run
	// still produces its own fresh quote, but over the same measurement.
	quoter, err := newQuoteFactory(env, f.prots[0])
	if err != nil {
		return nil, err
	}
	res := &LoadBenchResult{
		Program:     Sha1.Name,
		RateRPS:     cfg.rate,
		Restores:    cfg.restores,
		MaxSessions: cfg.maxSessions,
	}
	if res.Pipelined, err = loadRun(f, quoter, cfg, elide.ProtoV1); err != nil {
		return nil, err
	}
	if res.Legacy, err = loadRun(f, quoter, cfg, elide.ProtoLegacy); err != nil {
		return nil, err
	}
	if res.Pipelined.Latency.P50Us > 0 {
		res.P50SpeedupX = res.Legacy.Latency.P50Us / res.Pipelined.Latency.P50Us
	}
	return res, nil
}

// loadRun offers cfg.restores arrivals at cfg.rate against a new fleet
// member with the given protocol version and collects one LoadRunResult.
func loadRun(f *Fleet, quoter *quoteFactory, cfg loadCfg, proto uint8) (*LoadRunResult, error) {
	clientMetrics := obs.NewRegistry()
	clientTracer := obs.NewTracer(0)
	clientTracer.SetService("client")
	serverTracer := obs.NewTracer(0)
	serverTracer.SetService("server")
	ms, err := f.add(1, nil, elide.WithMaxSessions(cfg.maxSessions), elide.WithServerTracer(serverTracer))
	if err != nil {
		return nil, err
	}
	srv := ms[0]

	name := "legacy"
	if proto >= elide.ProtoV1 {
		name = "pipelined"
	}
	run := &LoadRunResult{Protocol: name, Offered: cfg.restores}
	wantMeta := f.prots[0].Meta.Marshal()

	latency := obs.NewHistogram()
	injectWall := time.Duration(float64(cfg.restores)/cfg.rate*float64(time.Second)) + cfg.timeout
	start := time.Now()
	completions := obs.NewSeries(start, int(injectWall/time.Second)+1, time.Second)

	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		completed  int
		failures   int
		overloaded int
		firstErr   error
	)
	interval := time.Duration(float64(time.Second) / cfg.rate)
	for i := 0; i < cfg.restores; i++ {
		// Open loop: arrival i fires at start + i*interval whether or not
		// earlier arrivals have finished.
		if d := time.Until(start.Add(time.Duration(i) * interval)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			arrived := time.Now()
			err := oneProtocolRestore(quoter, srv.addr, clientMetrics, clientTracer, cfg.timeout, proto, wantMeta)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				completed++
				latency.Observe(time.Since(arrived))
				completions.Observe()
				return
			}
			failures++
			if errors.Is(err, elide.ErrOverloaded) {
				overloaded++
			} else if firstErr == nil {
				firstErr = err
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := srv.kill(); err != nil {
		return nil, err
	}
	if completed == 0 {
		return nil, fmt.Errorf("bench: no %s restore completed: %v", name, firstErr)
	}
	// Failures under overload are the benchmark's subject, not a harness
	// error; anything else (first occurrence) is.
	if firstErr != nil {
		return nil, fmt.Errorf("bench: %s load run: %w", name, firstErr)
	}

	run.Completed = completed
	run.Errors = failures
	run.Overloaded = uint64(overloaded)
	run.WallMs = float64(wall.Nanoseconds()) / 1e6
	run.AchievedRPS = float64(completed) / wall.Seconds()
	csnap := clientMetrics.Snapshot()
	run.FlightsPerRestore = float64(csnap.Counters["client.flights"]) / float64(completed)
	hsnap := latency.Snapshot()
	run.Latency = LoadLatency{
		LatencySummary: summarize(hsnap),
		P999Us:         float64(hsnap.Quantile(0.999).Nanoseconds()) / 1e3,
	}
	// Trim trailing empty buckets so the curve ends where the run did.
	rates := completions.Rates()
	for len(rates) > 0 && rates[len(rates)-1] == 0 {
		rates = rates[:len(rates)-1]
	}
	run.ThroughputRPS = rates
	run.ClientCounters = csnap.Counters
	run.ServerCounters = srv.metrics.Snapshot().Counters
	run.PhaseLatency = phaseLatency(append(clientTracer.Completed(), serverTracer.Completed()...))
	return run, nil
}

// phaseLatency summarizes span durations per name per hop from merged
// trace records. Untagged records count as the client hop.
func phaseLatency(recs []obs.SpanRecord) map[string]map[string]LatencySummary {
	hists := make(map[string]map[string]*obs.Histogram)
	for _, r := range recs {
		svc := r.Svc
		if svc == "" {
			svc = "client"
		}
		m := hists[svc]
		if m == nil {
			m = make(map[string]*obs.Histogram)
			hists[svc] = m
		}
		h := m[r.Name]
		if h == nil {
			h = obs.NewHistogram()
			m[r.Name] = h
		}
		h.Observe(r.Duration())
	}
	out := make(map[string]map[string]LatencySummary, len(hists))
	for svc, m := range hists {
		sm := make(map[string]LatencySummary, len(m))
		for name, h := range m {
			sm[name] = summarize(h.Snapshot())
		}
		out[svc] = sm
	}
	return out
}

// oneProtocolRestore is one simulated user machine's restore: fresh ECDH
// keypair, fresh quote, own TCP connection, full protocol, results
// verified against the deployment's real metadata.
func oneProtocolRestore(quoter *quoteFactory, addr string, metrics *obs.Registry, tracer *obs.Tracer, timeout time.Duration, proto uint8, wantMeta []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	// One root span per simulated machine: the transport's attest/request
	// spans parent into it, and the v1 handshake carries its trace to the
	// server, so both hops' rings attribute this restore to one trace.
	root := tracer.Start("restore")
	defer root.End()
	ctx = obs.ContextWithSpan(ctx, root)
	priv, pub, err := sdk.GenerateECDHKeypair()
	if err != nil {
		return err
	}
	quote, err := quoter.quoteFor(pub)
	if err != nil {
		return err
	}
	client := elide.NewTCPClient(addr,
		elide.WithProtocolVersion(proto),
		elide.WithClientMetrics(metrics),
		elide.WithDialTimeout(timeout),
		elide.WithRequestTimeout(timeout),
		elide.WithRetryBudget(1), // open loop: a failed arrival is a data point, not a retry loop
	)
	defer func() { _ = client.Close() }()
	spub, err := client.Attest(ctx, quote, pub)
	if err != nil {
		return err
	}
	key, err := sdk.DeriveChannelKey(priv, spub)
	if err != nil {
		return err
	}
	request := func(req byte) ([]byte, error) {
		enc, err := elide.ChannelSeal(key, []byte{req})
		if err != nil {
			return nil, err
		}
		resp, err := client.Request(ctx, enc)
		if err != nil {
			return nil, err
		}
		return elide.ChannelOpen(key, resp)
	}
	meta, err := request(elide.RequestMeta)
	if err != nil {
		return fmt.Errorf("request_meta: %w", err)
	}
	if !bytes.Equal(meta, wantMeta) {
		return fmt.Errorf("request_meta: wrong metadata (%d bytes)", len(meta))
	}
	data, err := request(elide.RequestData)
	if err != nil {
		return fmt.Errorf("request_data: %w", err)
	}
	if len(data) == 0 {
		return fmt.Errorf("request_data: empty payload")
	}
	return nil
}
