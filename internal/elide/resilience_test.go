package elide

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"sgxelide/internal/obs"
)

// flakyDataClient wraps a Client and fails the Nth Request with a
// transient error (the protocol is strictly ordered, so request number
// names the phase: 1 = REQUEST_META, 2 = REQUEST_DATA).
type flakyDataClient struct {
	SecretChannel
	failNth  int
	requests int
}

func (f *flakyDataClient) Request(ctx context.Context, enc []byte) ([]byte, error) {
	f.requests++
	if f.requests == f.failNth {
		return nil, &unavailableError{attempts: 1, last: errors.New("connection reset")}
	}
	return f.SecretChannel.Request(ctx, enc)
}

// TestHybridDegradesToLocalFile: in a hybrid deployment, a failed
// REQUEST_DATA mid-protocol degrades to the encrypted local file — the
// restore still succeeds, reports its source as "local", and the typed
// ErrRemoteDataUnavailable lands in the error ring.
func TestHybridDegradesToLocalFile(t *testing.T) {
	ca, h := env(t)
	h.Metrics = obs.NewRegistry()
	p := buildApp(t, h, SanitizeOptions{Hybrid: true})
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	client := &flakyDataClient{SecretChannel: &DirectClient{Session: srv.NewSession()}, failNth: 2}
	encl, rt, err := p.Launch(h, client, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RestoreResilient(context.Background(), encl, rt, RestoreOptions{})
	if err != nil {
		t.Fatalf("restore failed instead of degrading: %v", err)
	}
	if out.Code != RestoreOKServer || out.Source != "local" {
		t.Fatalf("outcome = code %d source %q, want degraded local restore", out.Code, out.Source)
	}
	degraded := false
	for _, e := range out.Events {
		if errors.Is(e, ErrRemoteDataUnavailable) {
			degraded = true
		}
	}
	if !degraded {
		t.Fatalf("no ErrRemoteDataUnavailable among events %v", out.Events)
	}
	if h.Metrics.Snapshot().Counters["runtime.degraded_local"] != 1 {
		t.Fatal("degraded_local not counted")
	}
	if got, err := encl.ECall("ecall_compute", 12); err != nil || got != secretTransformGo(12) {
		t.Fatalf("degraded restore computes wrong: %d, %v", got, err)
	}
}

// TestHybridPrefersRemote: with a healthy server the hybrid restore takes
// the remote copy and never touches the local file path.
func TestHybridPrefersRemote(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{Hybrid: true})
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RestoreResilient(context.Background(), encl, rt, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Source != "server" || out.Attempts != 1 {
		t.Fatalf("outcome = source %q attempts %d, want clean server restore", out.Source, out.Attempts)
	}
}

// TestSealedCorruptTypedAndResealed is the sealed-blob survivability
// satellite: a flipped byte in Files.Sealed surfaces as ErrSealedCorrupt
// in the error ring, the restore falls back to the network, and a *fresh*
// sealed blob is written — proven by a third launch restoring sealed-only
// against a dead server.
func TestSealedCorruptTypedAndReseal(t *testing.T) {
	ca, h := env(t)
	h.Metrics = obs.NewRegistry()
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	if code, err := encl.ECall("elide_restore", FlagSealAfter); err != nil || code != RestoreOKServer {
		t.Fatalf("seeding restore: %d %v", code, err)
	}
	if len(rt.Files.Sealed) == 0 {
		t.Fatal("no sealed blob written")
	}

	// Flip a byte of the sealed digest (header offset 32..63): the GCM MAC
	// still passes, so this exercises the post-apply verification arm of
	// the corrupt classification, not just the MAC arm.
	corrupted := append([]byte(nil), rt.Files.Sealed...)
	corrupted[40] ^= 0xff
	files2 := &FileStore{Sealed: corrupted}
	encl2, rt2, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, files2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := RestoreResilient(context.Background(), encl2, rt2, RestoreOptions{})
	if err != nil {
		t.Fatalf("corrupt sealed blob aborted the restore: %v", err)
	}
	if out.Code != RestoreOKServer || out.Source != "server" {
		t.Fatalf("outcome = code %d source %q, want network fallback", out.Code, out.Source)
	}
	sawCorrupt := false
	for _, e := range out.Events {
		if errors.Is(e, ErrSealedCorrupt) {
			sawCorrupt = true
		}
	}
	if !sawCorrupt {
		t.Fatalf("no ErrSealedCorrupt among events %v", out.Events)
	}
	if h.Metrics.Snapshot().Counters["runtime.sealed_corrupt"] == 0 {
		t.Fatal("sealed_corrupt not counted")
	}

	// The fallback re-sealed a fresh blob without being asked to
	// (no FlagSealAfter this run) — the corrupted one is useless.
	if len(rt2.Files.Sealed) == 0 || string(rt2.Files.Sealed) == string(corrupted) {
		t.Fatal("corrupt blob was not replaced by a fresh seal")
	}

	// The fresh blob restores with no server at all.
	dead := clientFunc{
		attest: func() ([]byte, error) {
			return nil, &unavailableError{attempts: 1, last: errors.New("down")}
		},
	}
	encl3, rt3, err := p.Launch(h, dead, rt2.Files)
	if err != nil {
		t.Fatal(err)
	}
	out3, err := RestoreResilient(context.Background(), encl3, rt3, RestoreOptions{})
	if err != nil {
		t.Fatalf("re-sealed blob did not restore offline: %v", err)
	}
	if out3.Code != RestoreOKSealed || out3.Source != "sealed" {
		t.Fatalf("outcome = code %d source %q, want sealed restore", out3.Code, out3.Source)
	}
	if got, err := encl3.ECall("ecall_compute", 5); err != nil || got != secretTransformGo(5) {
		t.Fatalf("sealed restore computes wrong: %d, %v", got, err)
	}
}

// TestSealedForgedLengthFallsBack: the sealed header's dlen is read before
// the blob is authenticated, so a forged one must classify as corrupt
// rather than size a malloc that aborts the enclave. A huge dlen would run
// the trusted heap dry; a dlen that makes 64+28+dlen wrap around to the
// length of a short file would pass a naive total-length check.
func TestSealedForgedLengthFallsBack(t *testing.T) {
	ca, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	srv, err := p.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	if code, err := encl.ECall("elide_restore", FlagSealAfter); err != nil || code != RestoreOKServer {
		t.Fatalf("seeding restore: %d %v", code, err)
	}
	sealed := rt.Files.Sealed

	huge := append([]byte(nil), sealed...)
	huge[6] = 0x7f
	wrapping := append([]byte(nil), sealed[:80]...)
	binary.LittleEndian.PutUint64(wrapping, uint64(len(wrapping))-92) // 64+28+dlen == 80 mod 2^64

	for _, tc := range []struct {
		name string
		blob []byte
	}{{"huge", huge}, {"wrapping", wrapping}} {
		t.Run(tc.name, func(t *testing.T) {
			encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, &FileStore{Sealed: tc.blob})
			if err != nil {
				t.Fatal(err)
			}
			defer encl.Destroy()
			out, err := RestoreResilient(context.Background(), encl, rt, RestoreOptions{})
			if err != nil {
				t.Fatalf("forged sealed header aborted the restore: %v", err)
			}
			if out.Code != RestoreOKServer || out.Source != "server" {
				t.Fatalf("outcome = code %d source %q, want network fallback", out.Code, out.Source)
			}
			sawCorrupt := false
			for _, e := range out.Events {
				sawCorrupt = sawCorrupt || errors.Is(e, ErrSealedCorrupt)
			}
			if !sawCorrupt {
				t.Fatalf("no ErrSealedCorrupt among events %v", out.Events)
			}
			if len(rt.Files.Sealed) == 0 || bytes.Equal(rt.Files.Sealed, tc.blob) {
				t.Fatal("forged blob was not replaced by a fresh seal")
			}
			if got, err := encl.ECall("ecall_compute", 7); err != nil || got != secretTransformGo(7) {
				t.Fatalf("fallback restore computes wrong: %d, %v", got, err)
			}
		})
	}
}

// TestTornRestoreDetected: a server releasing tampered secret data (one
// flipped byte inside a sanitized function) fails the post-apply digest
// check — elide_restore returns RestoreErrTorn, the enclave refuses to
// mark itself restored, and the resilient driver classifies the failure
// as retryable but ultimately surfaces ErrTornRestore.
func TestTornRestoreDetected(t *testing.T) {
	ca, h := env(t)
	h.Metrics = obs.NewRegistry()
	// Ranges mode: the data blob is count|{off,len,bytes}... — byte 24 is
	// the first content byte of the first sanitized range, so the flip
	// lands in a *sanitized* (never whitelisted, never running) function
	// and cannot crash the machinery driving the test.
	p := buildApp(t, h, SanitizeOptions{Ranges: true})
	tampered := *p
	tampered.SecretData = append([]byte(nil), p.SecretData...)
	tampered.SecretData[24] ^= 0xff
	srv, err := tampered.NewServerFor(ca)
	if err != nil {
		t.Fatal(err)
	}
	encl, rt, err := p.Launch(h, &DirectClient{Session: srv.NewSession()}, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	out, err := RestoreResilient(context.Background(), encl, rt, RestoreOptions{
		MaxAttempts: 2, Backoff: time.Millisecond,
	})
	if err == nil {
		t.Fatalf("tampered data restored successfully (outcome %+v)", out)
	}
	if !errors.Is(err, ErrRestoreFailed) {
		t.Fatalf("err = %v, want ErrRestoreFailed", err)
	}
	if !errors.Is(err, ErrTornRestore) {
		t.Fatalf("err = %v, does not unwrap to ErrTornRestore", err)
	}
	var rf *RestoreFailure
	if !errors.As(err, &rf) || rf.Code != RestoreErrTorn {
		t.Fatalf("failure code = %v, want %d", err, RestoreErrTorn)
	}
	if rf.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (torn is retryable)", rf.Attempts)
	}
	if h.Metrics.Snapshot().Counters["runtime.torn_restores"] == 0 {
		t.Fatal("torn_restores not counted")
	}
	// The enclave must not believe it is restored: the secret ecall still
	// faults rather than running half-tampered code.
	if _, err := encl.ECall("ecall_compute", 3); err == nil {
		t.Fatal("secret ecall ran after a torn restore")
	}
}

// TestRestoreResilientTerminalRefusal: an attest-phase refusal is
// terminal — one attempt, no shopping, ErrRefused preserved.
func TestRestoreResilientTerminalRefusal(t *testing.T) {
	_, h := env(t)
	p := buildApp(t, h, SanitizeOptions{})
	refuser := clientFunc{
		attest: func() ([]byte, error) { return nil, &RefusedError{Msg: "unknown measurement"} },
	}
	encl, rt, err := p.Launch(h, refuser, p.LocalFiles())
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := RestoreResilient(context.Background(), encl, rt, RestoreOptions{MaxAttempts: 3})
	if !errors.Is(rerr, ErrRestoreFailed) {
		t.Fatalf("err = %v, want ErrRestoreFailed", rerr)
	}
	var rf *RestoreFailure
	if !errors.As(rerr, &rf) {
		t.Fatal(rerr)
	}
	if rf.Attempts != 1 {
		t.Fatalf("refusal retried %d times, want 1", rf.Attempts)
	}
	if !errors.Is(rerr, ErrRefused) {
		t.Fatalf("err = %v, does not unwrap to ErrRefused", rerr)
	}
}
