package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
)

// resumeCfg sizes the kill-replica-then-resume-elsewhere scenario:
// sessions clients attest to replica A, A is killed, and every client
// then replays its handshake against replica B. The run happens twice —
// once with resume replication between the replicas and once without — so
// the report shows the cost the replication layer removes: with it, B
// resumes every session with zero attestation flights; without it, every
// resumed session silently pays a full re-attestation.
type resumeCfg struct {
	sessions int           // sessions to establish and resume
	timeout  time.Duration // per-operation deadline
}

var resumeFull = resumeCfg{sessions: 16, timeout: time.Minute}

// ResumeModeResult is one mode's half of BENCH_resume.json.
type ResumeModeResult struct {
	Sessions   int `json:"sessions"`
	Resumed    int `json:"resumed"`     // replays answered with the original server key
	ReAttested int `json:"re_attested"` // replays downgraded to a full re-attestation

	// Full attestation flights replica B ran to serve the replays — the
	// headline number: 0 with replication, 1 per session without.
	ExtraAttestFlights   uint64         `json:"extra_attest_flights"`
	ExtraAttestPerResume float64        `json:"extra_attest_flights_per_resume"`
	ResumeLatency        LatencySummary `json:"resume_latency"`
	WallMs               float64        `json:"wall_ms"`
}

// ResumeResult is the JSON document elide-bench -resume writes to
// BENCH_resume.json.
type ResumeResult struct {
	Program    string            `json:"program"`
	Replicated ResumeModeResult  `json:"replicated"`
	Baseline   ResumeModeResult  `json:"baseline"`
	Counters   map[string]uint64 `json:"counters"`
}

func (r *ResumeResult) String() string {
	return fmt.Sprintf(
		"resume bench: %s, %d sessions killed over to a peer replica\n"+
			"  replicated: %d resumed / %d re-attested, %.2f extra attest flights per resume, p50 %.0fµs p99 %.0fµs\n"+
			"  baseline:   %d resumed / %d re-attested, %.2f extra attest flights per resume, p50 %.0fµs p99 %.0fµs",
		r.Program, r.Replicated.Sessions,
		r.Replicated.Resumed, r.Replicated.ReAttested, r.Replicated.ExtraAttestPerResume,
		r.Replicated.ResumeLatency.P50Us, r.Replicated.ResumeLatency.P99Us,
		r.Baseline.Resumed, r.Baseline.ReAttested, r.Baseline.ExtraAttestPerResume,
		r.Baseline.ResumeLatency.P50Us, r.Baseline.ResumeLatency.P99Us)
}

// resumeBench runs the scenario in both modes and assembles the report.
func resumeBench(env *Env, cfg resumeCfg) (*ResumeResult, error) {
	f, err := newFleet(env, elide.SanitizeOptions{}, Sha1)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.close() }()
	quoter, err := newQuoteFactory(env, f.prots[0])
	if err != nil {
		return nil, err
	}
	res := &ResumeResult{Program: Sha1.Name, Counters: map[string]uint64{}}
	// The fleet sealing key is what keeps channel keys wrapped on the
	// replication wire; a fixed key is fine for a benchmark. The baseline
	// pair has no key, so it neither replicates nor peers.
	if res.Replicated, err = resumeMode(f, quoter, cfg, bytes.Repeat([]byte{0xB7}, 32), "replicated.", res.Counters); err != nil {
		return nil, fmt.Errorf("bench: replicated resume run: %w", err)
	}
	if res.Baseline, err = resumeMode(f, quoter, cfg, nil, "baseline.", res.Counters); err != nil {
		return nil, fmt.Errorf("bench: baseline resume run: %w", err)
	}
	return res, nil
}

// resumeMode adds replicas A and B (replicating to each other when key is
// set), establishes every session on A, kills A, and replays every
// session against B. Both replicas' counters land in counters under
// prefix.
func resumeMode(f *Fleet, quoter *quoteFactory, cfg resumeCfg, key []byte, prefix string, counters map[string]uint64) (ResumeModeResult, error) {
	out := ResumeModeResult{Sessions: cfg.sessions}
	ms, err := f.add(2, key)
	if err != nil {
		return out, err
	}
	a, b := ms[0], ms[1]
	defer func() { _ = b.kill() }()
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	sessions, err := quoter.openSessions(ctx, a.addr, cfg.sessions, cfg.timeout)
	if err != nil {
		return out, err
	}
	if key != nil {
		// The push is async; the kill must not race it or the run would
		// measure a replication gap, not the steady state.
		replicated := b.metrics.Counter("server.resume_replicated")
		if err := waitFor(10*time.Second, func() bool { return replicated.Load() >= uint64(cfg.sessions) }); err != nil {
			return out, fmt.Errorf("only %d/%d sessions replicated to the peer", replicated.Load(), cfg.sessions)
		}
	}
	_ = a.kill()

	wantMeta := f.prots[0].Meta.Marshal()
	latency := obs.NewHistogram()
	start := time.Now()
	for i := range sessions {
		resumed, took, err := sessions[i].resume(ctx, b.addr, cfg.timeout, wantMeta)
		if err != nil {
			return out, fmt.Errorf("session %d: %w", i, err)
		}
		latency.Observe(took)
		if resumed {
			out.Resumed++
		} else {
			out.ReAttested++
		}
	}
	out.WallMs = float64(time.Since(start).Nanoseconds()) / 1e6
	out.ExtraAttestFlights = b.metrics.Counter("server.attest_ok").Load()
	out.ExtraAttestPerResume = float64(out.ExtraAttestFlights) / float64(cfg.sessions)
	out.ResumeLatency = summarize(latency.Snapshot())
	for k, v := range mergeCounters(a.metrics, b.metrics) {
		counters[prefix+k] += v
	}
	return out, nil
}
