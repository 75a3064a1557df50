package main

import "math/rand/v2"

// Every input the benchmark feeds the program comes from the workload
// seed through these generators, so one seed replays one operation
// sequence exactly. Each generator draws from its own stream.

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// coldOrder yields cold-restore iterations: one cycle is every deployment
// once, in a fresh seeded order.
type coldOrder struct {
	rng *rand.Rand
	n   int
}

func newColdOrder(seed uint64, deployments int) *coldOrder {
	return &coldOrder{rng: newRand(seed, 1), n: deployments}
}

// cycle returns the next permutation of deployment indices.
func (o *coldOrder) cycle() []int { return o.rng.Perm(o.n) }

// appStep is one program's baseline/protected pair in an app round.
type appStep struct {
	prog          int
	baselineFirst bool
}

// appOrder yields app rounds: every program once, in a seeded order, each
// with a seeded choice of which side of its pair runs first.
type appOrder struct {
	rng *rand.Rand
	n   int
}

func newAppOrder(seed uint64, programs int) *appOrder {
	return &appOrder{rng: newRand(seed, 2), n: programs}
}

func (o *appOrder) round() []appStep {
	var out []appStep
	for _, p := range o.rng.Perm(o.n) {
		out = append(out, appStep{prog: p, baselineFirst: o.rng.IntN(2) == 0})
	}
	return out
}

// Kinds of serve arrivals.
type opKind uint8

const (
	opFresh  opKind = iota // pipelined (v1) restore: one flight
	opResume               // ResumeAttest replay of an earlier session on the other replica
	opLegacy               // three-flight restore
)

func (k opKind) String() string {
	return [...]string{"fresh", "resume", "legacy"}[k]
}

// serveOp is one planned serve arrival.
type serveOp struct {
	kind    opKind
	replica int
	target  int // opResume: index of the earlier opFresh whose session it replays
}

// Serve mix and resume window: a resume replays a fresh session that
// began between resumeWindow and resumeLag arrivals earlier, so the
// session has normally finished (and been pushed to the peer) by the time
// the replay is issued.
const (
	shareFresh   = 0.70
	shareResume  = 0.20
	resumeLag    = 16
	resumeWindow = 512
)

// servePlan yields serve arrivals: the 70/20/10 fresh/resume/legacy mix,
// the replica each goes to, and which session each resume replays.
type servePlan struct {
	rng   *rand.Rand
	ops   []serveOp
	fresh []int // indices of planned fresh arrivals, ascending
}

func newServePlan(seed uint64) *servePlan {
	return &servePlan{rng: newRand(seed, 3)}
}

// next plans arrival len(p.ops) and returns it with its index.
func (p *servePlan) next() (int, serveOp) {
	i := len(p.ops)
	u := p.rng.Float64()
	op := serveOp{replica: p.rng.IntN(2)}
	switch {
	case u < shareFresh:
		op.kind = opFresh
	case u < shareFresh+shareResume:
		op.kind = opResume
	default:
		op.kind = opLegacy
	}
	if op.kind == opResume {
		lo, hi := i-resumeWindow, i-resumeLag
		var cands []int
		for j := len(p.fresh) - 1; j >= 0 && p.fresh[j] >= lo; j-- {
			if p.fresh[j] <= hi {
				cands = append(cands, p.fresh[j])
			}
		}
		if len(cands) == 0 {
			op.kind = opFresh // nothing old enough to replay yet
		} else {
			op.target = cands[p.rng.IntN(len(cands))]
			op.replica = 1 - p.ops[op.target].replica
		}
	}
	if op.kind == opFresh {
		p.fresh = append(p.fresh, i)
	}
	p.ops = append(p.ops, op)
	return i, op
}
