package bench

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sgxelide/internal/elide"
)

// chaosCfg sizes the restore-survivability chaos run: restores full
// protocol runs against replicas replicated authentication servers while
// the controller kills (and restarts) servers mid-run and injects
// scripted connection faults. The deployment is hybrid — data on the
// servers *and* in the encrypted local file — so every strategy of the
// degradation chain is reachable.
type chaosCfg struct {
	replicas     int           // replicated auth servers
	restores     int           // total restores to drive
	workers      int           // concurrent restore workers
	faultEvery   int           // inject a scripted fault on every k-th dial
	restartDelay time.Duration // how long replica 0 stays dead before restarting
	timeout      time.Duration // per-restore deadline
}

var chaosFull = chaosCfg{replicas: 3, restores: 48, workers: 8, faultEvery: 5,
	restartDelay: 500 * time.Millisecond, timeout: 2 * time.Minute}

// ChaosResult is the JSON document the chaos scenario writes to
// BENCH_chaos.json.
type ChaosResult struct {
	Program    string  `json:"program"`
	Replicas   int     `json:"replicas"`
	Restores   int     `json:"restores"`
	Workers    int     `json:"workers"`
	FaultEvery int     `json:"fault_every"`
	WallMs     float64 `json:"wall_ms"`

	restoreTally

	Kills        int    `json:"kills"`
	Restarts     int    `json:"restarts"`
	Failovers    uint64 `json:"failovers"`
	BreakerTrips uint64 `json:"breaker_trips"`
	SessionsLost uint64 `json:"sessions_lost"`
	RetriedRuns  uint64 `json:"retried_runs"` // protocol runs beyond each restore's first

	RestoreLatency LatencySummary    `json:"restore_latency"`
	Counters       map[string]uint64 `json:"counters"`
}

func (r *ChaosResult) String() string {
	return fmt.Sprintf(
		"chaos bench: %s, %d replicas, %d restores (%d workers, fault every %d dials): "+
			"%d ok / %d typed / %d untyped failures in %.1f ms\n"+
			"  sources: %d server, %d local, %d sealed; %d kills, %d restarts, "+
			"%d failovers, %d breaker trips, %d sessions lost\n"+
			"  restore p50 %.0fµs  p90 %.0fµs  p99 %.0fµs",
		r.Program, r.Replicas, r.Restores, r.Workers, r.FaultEvery,
		r.Succeeded, r.TypedFailures, r.UntypedFailures, r.WallMs,
		r.SourceServer, r.SourceLocal, r.SourceSealed, r.Kills, r.Restarts,
		r.Failovers, r.BreakerTrips, r.SessionsLost,
		r.RestoreLatency.P50Us, r.RestoreLatency.P90Us, r.RestoreLatency.P99Us)
}

// chaosBench provisions the replicated deployment and drives
// cfg.restores concurrent resilient restores through it while the
// controller kills replica 0 after ~1/3 of the restores have finished
// (restarting it after cfg.restartDelay) and kills replica 1 for good
// after ~2/3, leaving one live replica plus local files. Every restore
// must either succeed — through any strategy in the degradation chain —
// or fail with a typed, classified error; untyped failures indicate a
// survivability bug.
func chaosBench(env *Env, cfg chaosCfg) (*ChaosResult, error) {
	// Hybrid deployment: the degradation chain's local-file strategy stays
	// reachable when every replica is momentarily unreachable mid-protocol.
	f, err := newFleet(env, elide.SanitizeOptions{Hybrid: true}, Sha1)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.close() }()
	replicas, err := f.add(cfg.replicas, nil)
	if err != nil {
		return nil, err
	}

	// Scripted dial faults: every faultEvery-th connection anywhere in the
	// run dies on its first I/O operation — after the dial succeeded, which
	// is the window ad-hoc kill timing cannot hit deterministically.
	var dials atomic.Int64
	dial := func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1)%int64(cfg.faultEvery) == 0 {
			return elide.NewFaultConn(conn).WithScript(
				elide.FaultAction{Op: elide.OpAny, Fail: true},
			), nil
		}
		return conn, nil
	}
	// One shared endpoint pool for the whole fleet: the machine's view of
	// replica health is collective, so a kill observed by one worker trips
	// the breaker for all of them.
	users := newMachines(f, cfg.timeout)
	pool := users.newPool(addrs(replicas), elide.WithDialer(dial))

	res := &ChaosResult{
		Program:    Sha1.Name,
		Replicas:   cfg.replicas,
		Restores:   cfg.restores,
		Workers:    cfg.workers,
		FaultEvery: cfg.faultEvery,
	}
	runEnd, stopCtl := context.WithCancel(context.Background())
	defer stopCtl()
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		users.waitDone(cfg.restores / 3)
		_ = replicas[0].kill()
		res.Kills++
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			select {
			case <-runEnd.Done():
				return
			case <-time.After(cfg.restartDelay):
			}
			if replicas[0].start() == nil {
				res.Restarts++
			}
		}()
		if cfg.replicas > 2 {
			users.waitDone(2 * cfg.restores / 3)
			_ = replicas[1].kill()
			res.Kills++
		}
	}()

	tally, wall := users.run(pool, cfg.restores, cfg.workers)
	stopCtl()
	ctl.Wait()
	res.restoreTally = tally
	res.WallMs = float64(wall.Nanoseconds()) / 1e6
	psnap := users.pool.Snapshot()
	res.Failovers = psnap.Counters["failover.switches"]
	res.BreakerTrips = psnap.Counters["failover.breaker_trips"]
	res.SessionsLost = psnap.Counters["failover.session_lost"]
	res.RetriedRuns = users.runtime.Counter("restore.retries").Load()
	res.RestoreLatency = summarize(users.latency.Snapshot())
	res.Counters = f.counters(users.pool, users.runtime, users.client)
	return res, nil
}
