package bench

import (
	"testing"
	"time"
)

// TestChaosBenchSmoke drives a scaled-down chaos run — replicated servers,
// a mid-run kill with restart, scripted dial faults — and asserts the
// survivability contract: every restore either succeeds (through any link
// of the degradation chain) or fails with a typed, classified error, and
// no restore that reported success computes wrong answers.
func TestChaosBenchSmoke(t *testing.T) {
	env := sharedEnv(t)
	cfg := chaosCfg{
		replicas:     3,
		restores:     12,
		workers:      4,
		faultEvery:   4,
		restartDelay: 300 * time.Millisecond,
		timeout:      chaosFull.timeout,
	}
	if testing.Short() {
		cfg.replicas = 2
		cfg.restores = 6
		cfg.workers = 2
	}
	res, err := chaosBench(env, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res.String())
	if res.UntypedFailures != 0 {
		t.Fatalf("%d restores failed with untyped errors", res.UntypedFailures)
	}
	if res.WorkloadFailures != 0 {
		t.Fatalf("%d successful restores computed wrong answers", res.WorkloadFailures)
	}
	if res.Succeeded == 0 {
		t.Fatal("no restore succeeded at all")
	}
	if res.Kills == 0 {
		t.Fatal("the chaos controller never killed a replica")
	}
	// The success rate floor: with N-1 replicas surviving plus the hybrid
	// local file, losing a server must not take down more than the restores
	// in flight with it — demand a strong majority succeed.
	if res.Succeeded*4 < res.Restores*3 {
		t.Fatalf("only %d/%d restores succeeded", res.Succeeded, res.Restores)
	}
}
