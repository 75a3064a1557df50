package bench

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"sgxelide/internal/elide"
	"sgxelide/internal/obs"
)

// churnCfg sizes the gossip-fleet churn run: restores full restores flow
// through a fleet of replicas gossip members (every one seeded with only
// member 0 — bootstrap is the mesh's job) plus one legacy replica that
// speaks no gossip at all, while the controller kills a member at ~1/4 of
// the run, cold-adds a brand-new member at ~1/2 (and proves it converges
// on the fleet's resume records without a single attestation flight), and
// restarts the killed member at ~3/4. The client endpoint pool tracks the
// fleet through the membership query the whole time.
type churnCfg struct {
	replicas       int           // initial gossip members, at least 2
	restores       int           // total restores to drive
	workers        int           // concurrent restore workers
	sessions       int           // sessions pre-established on member 0
	gossipInterval time.Duration // fleet gossip tick
	suspectTimeout time.Duration // suspicion expiry
	timeout        time.Duration // per-restore deadline
}

var churnFull = churnCfg{replicas: 3, restores: 48, workers: 8, sessions: 8,
	gossipInterval: 25 * time.Millisecond, suspectTimeout: 150 * time.Millisecond, timeout: 2 * time.Minute}

// ChurnResult is the JSON document the churn scenario writes to
// BENCH_churn.json. A correct run has UntypedFailures == 0,
// AddedExtraAttestFlights == 0 (the cold replica resumed every session
// from anti-entropy state alone), and non-zero suspect/dead/join audit
// counts for the churn the controller inflicted.
type ChurnResult struct {
	Program  string  `json:"program"`
	Replicas int     `json:"replicas"`
	Restores int     `json:"restores"`
	Workers  int     `json:"workers"`
	Sessions int     `json:"sessions"`
	WallMs   float64 `json:"wall_ms"`

	restoreTally

	Kills    int `json:"kills"`
	Restarts int `json:"restarts"`
	Added    int `json:"added"`

	// Client pool size as the fleet view changed: full fleet + legacy,
	// after the kill was gossiped, after the cold member joined.
	PoolBeforeKill int `json:"pool_before_kill"`
	PoolAfterKill  int `json:"pool_after_kill"`
	PoolAfterAdd   int `json:"pool_after_add"`

	// Cold-added member: how long until it held every pre-established
	// session record (anti-entropy), and what it cost to resume them.
	ConvergenceMs           float64 `json:"convergence_ms"`
	ConvergenceRounds       int     `json:"convergence_rounds"`
	AddedResumed            int     `json:"added_resumed"`
	AddedExtraAttestFlights uint64  `json:"added_extra_attest_flights"`

	// The gossip-less replica must keep serving through the static pool
	// entries the whole time.
	LegacyRestores  int `json:"legacy_restores"`
	LegacySucceeded int `json:"legacy_succeeded"`

	MemberJoins    uint64 `json:"member_joins"`
	MemberSuspects uint64 `json:"member_suspects"`
	MemberDeaths   uint64 `json:"member_deaths"`
	AntiEntropy    uint64 `json:"anti_entropy_syncs"`

	RestoreLatency LatencySummary    `json:"restore_latency"`
	Counters       map[string]uint64 `json:"counters"`
}

func (r *ChurnResult) String() string {
	return fmt.Sprintf(
		"churn bench: %s, %d gossip replicas + 1 legacy, %d restores (%d workers): "+
			"%d ok / %d typed / %d untyped failures in %.1f ms\n"+
			"  churn: %d kills, %d restarts, %d added; pool %d → %d → %d\n"+
			"  cold member: converged in %d gossip rounds (%.0f ms), resumed %d/%d sessions "+
			"with %d extra attest flights\n"+
			"  legacy: %d/%d restores ok; audits: %d joins, %d suspects, %d deaths, %d anti-entropy\n"+
			"  restore p50 %.0fµs  p90 %.0fµs  p99 %.0fµs",
		r.Program, r.Replicas, r.Restores, r.Workers,
		r.Succeeded, r.TypedFailures, r.UntypedFailures, r.WallMs,
		r.Kills, r.Restarts, r.Added, r.PoolBeforeKill, r.PoolAfterKill, r.PoolAfterAdd,
		r.ConvergenceRounds, r.ConvergenceMs, r.AddedResumed, r.Sessions,
		r.AddedExtraAttestFlights,
		r.LegacySucceeded, r.LegacyRestores,
		r.MemberJoins, r.MemberSuspects, r.MemberDeaths, r.AntiEntropy,
		r.RestoreLatency.P50Us, r.RestoreLatency.P90Us, r.RestoreLatency.P99Us)
}

// churnBench provisions the gossip fleet and drives the run.
func churnBench(env *Env, cfg churnCfg) (*ChurnResult, error) {
	f, err := newFleet(env, elide.SanitizeOptions{Hybrid: true}, Sha1)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.close() }()
	f.gossip, f.suspect = cfg.gossipInterval, cfg.suspectTimeout
	quoter, err := newQuoteFactory(env, f.prots[0])
	if err != nil {
		return nil, err
	}
	fleetKey := bytes.Repeat([]byte{0xC4}, 32)
	fleetAudit := obs.NewAuditLog(0)
	gossipers, err := f.add(cfg.replicas, fleetKey, elide.WithServerAudit(fleetAudit))
	if err != nil {
		return nil, err
	}
	seed := gossipers[0].addr
	// The legacy replica: same enclave, no fleet key, no gossip. It must
	// keep serving through the pool's static entries.
	legacy, err := f.add(1, nil)
	if err != nil {
		return nil, err
	}

	// Wait for the mesh to self-assemble from the single seed before any
	// load: every member must see every other member.
	if err := waitFor(30*time.Second, func() bool { return countStatus(seed, elide.MemberAlive) >= cfg.replicas }); err != nil {
		return nil, fmt.Errorf("bench: mesh bootstrap: fleet view never reached %d alive members: %w", cfg.replicas, err)
	}
	users := newMachines(f, cfg.timeout)
	pool := users.newPool(append(addrs(gossipers), legacy[0].addr))
	memberCtx, memberCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer memberCancel()
	if err := pool.SyncMembership(memberCtx); err != nil {
		return nil, fmt.Errorf("bench: initial membership sync: %w", err)
	}
	watchCtx, watchStop := context.WithCancel(context.Background())
	defer watchStop()
	pool.WatchMembership(watchCtx, cfg.gossipInterval)

	// Pre-establish the sessions the cold-added member must later resume
	// without re-attesting, and wait for the push layer to fan them out.
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	sessions, err := quoter.openSessions(ctx, seed, cfg.sessions, cfg.timeout)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	for i, m := range gossipers[1:] {
		replicated := m.metrics.Counter("server.resume_replicated")
		if err := waitFor(15*time.Second, func() bool { return replicated.Load() >= uint64(cfg.sessions) }); err != nil {
			return nil, fmt.Errorf("bench: replica %d holds %d/%d pushed sessions: %w", i+1, replicated.Load(), cfg.sessions, err)
		}
	}

	res := &ChurnResult{
		Program:  Sha1.Name,
		Replicas: cfg.replicas,
		Restores: cfg.restores,
		Workers:  cfg.workers,
		Sessions: cfg.sessions,
	}
	poolSize := func() int { return len(pool.Endpoints()) }
	victim := gossipers[1]
	var added *member

	// The controller runs the churn script in sequence; each step gates on
	// restore progress so the fleet is under load when it changes shape.
	var ctlErr error
	ctlDone := make(chan struct{})
	go func() {
		defer close(ctlDone)
		ctlErr = func() error {
			// 1/4: kill a member. The fleet must gossip it dead and the
			// client pool must shed the endpoint on its own.
			users.waitDone(cfg.restores / 4)
			res.PoolBeforeKill = poolSize()
			_ = victim.kill()
			res.Kills++
			if err := waitFor(15*time.Second, func() bool { return hasStatus(seed, victim.addr, elide.MemberDead) }); err != nil {
				return fmt.Errorf("killed member never declared dead: %w", err)
			}
			if err := waitFor(15*time.Second, func() bool { return poolSize() == res.PoolBeforeKill-1 }); err != nil {
				return fmt.Errorf("pool kept the dead endpoint (size %d): %w", poolSize(), err)
			}
			res.PoolAfterKill = poolSize()

			// 1/2: cold-add a brand-new member seeded with member 0 only.
			// It must learn the fleet, pull every resume record via
			// anti-entropy, and then resume all the pre-established
			// sessions without one attestation flight.
			users.waitDone(cfg.restores / 2)
			ms, err := f.add(1, fleetKey, elide.WithServerAudit(fleetAudit))
			if err != nil {
				return fmt.Errorf("cold member start: %w", err)
			}
			added = ms[0]
			res.Added++
			t0 := time.Now()
			if err := waitFor(30*time.Second, func() bool { return added.server().ResumeLen() >= cfg.sessions }); err != nil {
				return fmt.Errorf("cold member held %d/%d resume records: %w", added.server().ResumeLen(), cfg.sessions, err)
			}
			conv := time.Since(t0)
			res.ConvergenceMs = float64(conv.Nanoseconds()) / 1e6
			res.ConvergenceRounds = int(conv/cfg.gossipInterval) + 1
			if err := waitFor(15*time.Second, func() bool { return poolSize() == res.PoolAfterKill+1 }); err != nil {
				return fmt.Errorf("pool never admitted the added member (size %d): %w", poolSize(), err)
			}
			res.PoolAfterAdd = poolSize()

			// 3/4: the killed member comes back with a fresh incarnation
			// and must out-bid its own death.
			users.waitDone(3 * cfg.restores / 4)
			if err := victim.start(); err != nil {
				return fmt.Errorf("restart: %w", err)
			}
			res.Restarts++
			if err := waitFor(15*time.Second, func() bool { return hasStatus(seed, victim.addr, elide.MemberAlive) }); err != nil {
				return fmt.Errorf("restarted member never revived: %w", err)
			}
			return nil
		}()
	}()

	tally, wall := users.run(pool, cfg.restores, cfg.workers)
	res.restoreTally = tally
	res.WallMs = float64(wall.Nanoseconds()) / 1e6
	<-ctlDone
	if ctlErr != nil {
		return nil, fmt.Errorf("bench: churn controller: %w", ctlErr)
	}

	// With the workers drained, resume every pre-established session on
	// the cold-added member. It converged mid-run via anti-entropy, so any
	// attestation flight it runs now is a downgrade — the delta must be 0.
	// (Measured post-run because workers land full attests on it through
	// the pool, which would falsely inflate a mid-run reading.)
	attests := added.metrics.Counter("server.attest_ok")
	attestsBefore := attests.Load()
	wantMeta := f.prots[0].Meta.Marshal()
	for i := range sessions {
		resumed, _, err := sessions[i].resume(ctx, added.addr, cfg.timeout, wantMeta)
		if err != nil {
			return nil, fmt.Errorf("bench: session %d on the added member: %w", i, err)
		}
		if resumed {
			res.AddedResumed++
		}
	}
	res.AddedExtraAttestFlights = attests.Load() - attestsBefore

	// The legacy replica served static-pool traffic throughout; prove it
	// still answers on its own.
	res.LegacyRestores = 4
	alone, _ := users.run(users.newPool([]string{legacy[0].addr}), res.LegacyRestores, 1)
	res.LegacySucceeded = alone.Succeeded

	audits := fleetAudit.Counts()
	res.MemberJoins = audits[obs.AuditMemberJoin]
	res.MemberSuspects = audits[obs.AuditMemberSuspect]
	res.MemberDeaths = audits[obs.AuditMemberDead]
	res.AntiEntropy = audits[obs.AuditAntiEntropy]
	res.RestoreLatency = summarize(users.latency.Snapshot())
	res.Counters = f.counters(users.pool, users.client, users.runtime)
	return res, nil
}

// fleetView is addr's membership view: each member's status by address
// (empty when addr does not answer).
func fleetView(addr string) map[string]elide.MemberStatus {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c := elide.NewTCPClient(addr,
		elide.WithDialTimeout(2*time.Second),
		elide.WithRequestTimeout(2*time.Second))
	defer func() { _ = c.Close() }()
	ms, _ := c.Members(ctx)
	view := make(map[string]elide.MemberStatus, len(ms))
	for _, m := range ms {
		view[m.Addr] = m.Status
	}
	return view
}

// hasStatus reports whether addr's view lists member with status st.
func hasStatus(addr, member string, st elide.MemberStatus) bool {
	got, ok := fleetView(addr)[member]
	return ok && got == st
}

func countStatus(addr string, st elide.MemberStatus) int {
	n := 0
	for _, s := range fleetView(addr) {
		if s == st {
			n++
		}
	}
	return n
}
