package bench

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"sgxelide/internal/elide"
)

// restoreBudgetFile holds the committed per-deployment instruction counts
// of elide_restore, keyed "<program>.<mode>".
const restoreBudgetFile = "testdata/restore_insns.json"

// TestRestoreInstructionBudget gates the cost of the trusted restore on a
// deterministic count: the EVM instructions elide_restore retires for each
// program in remote- and local-data mode. Wall time on a shared machine
// varies too much to gate; retired instructions do not vary at all, so a
// count above its baseline is a regression, two runs of one deployment
// disagreeing is a determinism bug, and a count below its baseline means
// the baseline is stale and must be lowered in the same change.
func TestRestoreInstructionBudget(t *testing.T) {
	raw, err := os.ReadFile(restoreBudgetFile)
	if err != nil {
		t.Fatal(err)
	}
	var budget map[string]uint64
	if err := json.Unmarshal(raw, &budget); err != nil {
		t.Fatalf("%s: %v", restoreBudgetFile, err)
	}

	env := sharedEnv(t)
	got := map[string]uint64{}
	for _, p := range All() {
		for _, mode := range []string{"remote", "local"} {
			prot, err := BuildProtected(env, p, elide.SanitizeOptions{EncryptLocal: mode == "local"})
			if err != nil {
				t.Fatal(err)
			}
			key := p.Name + "." + mode
			first := restoreSteps(t, env, prot)
			if second := restoreSteps(t, env, prot); second != first {
				t.Errorf("%s: two restores retired %d and %d instructions", key, first, second)
			}
			got[key] = first
		}
	}

	t.Logf("%-16s %10s %10s %8s", "deployment", "baseline", "measured", "change")
	for _, key := range sortedBudgetKeys(got, budget) {
		base, n := budget[key], got[key]
		t.Logf("%-16s %10d %10d %+8d", key, base, n, int64(n)-int64(base))
		switch {
		case n > base:
			t.Errorf("%s: elide_restore retired %d instructions, above its baseline %d", key, n, base)
		case n < base:
			t.Errorf("%s: elide_restore retired %d instructions, below its baseline %d: lower %s", key, n, base, restoreBudgetFile)
		}
	}
	if t.Failed() {
		measured, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("measured counts, in the format of %s:\n%s", restoreBudgetFile, measured)
	}
}

// restoreSteps launches prot against an in-process server and returns the
// instructions its elide_restore ecall retired.
func restoreSteps(t *testing.T, env *Env, prot *elide.Protected) uint64 {
	t.Helper()
	encl, rt, err := LaunchProtected(env, prot)
	if err != nil {
		t.Fatal(err)
	}
	defer encl.Destroy()
	before := encl.Steps
	code, err := encl.ECall("elide_restore", 0)
	if err != nil || code != elide.RestoreOKServer {
		t.Fatalf("elide_restore = %d, %v (runtime: %v)", code, err, rt.LastErr())
	}
	return encl.Steps - before
}

func sortedBudgetKeys(a, b map[string]uint64) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]uint64{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}
