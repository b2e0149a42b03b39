package train

import (
	"bytes"
	"fmt"
	"testing"

	"dnnperf/internal/data"
	"dnnperf/internal/models"
)

// newTestOptimizer builds a stateful, scheduled optimizer of the named kind
// — the configuration the v2 checkpoint must capture completely.
func newTestOptimizer(kind string) Optimizer {
	sched := Warmup{Start: 0.01, Target: 0.05, Steps: 3, Next: StepDecay{Base: 0.05, Factor: 0.5, Milestones: []int{6}}}
	switch kind {
	case "momentum":
		return &ScheduledOptimizer{Sched: sched, Inner: &Momentum{LR: 0.01, Mu: 0.9}}
	case "lars":
		return &ScheduledOptimizer{Sched: sched, Inner: &LARS{LR: 0.01, Mu: 0.9, Trust: 0.001}}
	default:
		panic("unknown optimizer kind " + kind)
	}
}

// lossTrajectory trains model m with opt over the given batches and returns
// the per-step losses.
func lossTrajectory(t *testing.T, m *models.Model, opt Optimizer, batches []data.Batch) []float64 {
	t.Helper()
	tr, err := New(Config{Model: m, Optimizer: opt})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	out := make([]float64, 0, len(batches))
	for _, b := range batches {
		st, err := tr.Step(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, st.Loss)
	}
	return out
}

// TestResumeEquivalence is the bit-exact resume guarantee: training straight
// through N steps and training k steps, checkpointing, restoring into fresh
// objects, and training the remaining N-k steps must produce identical loss
// trajectories — for both stateful optimizers, under an LR schedule whose
// position matters.
func TestResumeEquivalence(t *testing.T) {
	const total, split = 8, 4
	for _, kind := range []string{"momentum", "lars"} {
		t.Run(kind, func(t *testing.T) {
			gen, err := data.NewLearnable(8, 3, 16, 4, 29)
			if err != nil {
				t.Fatal(err)
			}
			batches := make([]data.Batch, total)
			for i := range batches {
				batches[i] = gen.Next()
			}

			// Straight run.
			mA := tinyModel(3, 8)
			straight := lossTrajectory(t, mA, newTestOptimizer(kind), batches)

			// Run to the split, checkpoint, restore, continue.
			mB := tinyModel(3, 8)
			optB := newTestOptimizer(kind)
			first := lossTrajectory(t, mB, optB, batches[:split])
			var buf bytes.Buffer
			if err := SaveTrainingCheckpoint(&buf, mB, CaptureTrainState(optB, split)); err != nil {
				t.Fatal(err)
			}

			mC := tinyModel(999, 8) // different seed: restore must overwrite everything
			optC := newTestOptimizer(kind)
			st, err := LoadTrainingCheckpoint(bytes.NewReader(buf.Bytes()), mC)
			if err != nil {
				t.Fatal(err)
			}
			if st.Step != split {
				t.Fatalf("restored step = %d, want %d", st.Step, split)
			}
			if err := RestoreTrainState(mC, optC, st); err != nil {
				t.Fatal(err)
			}
			rest := lossTrajectory(t, mC, optC, batches[split:])

			got := append(first, rest...)
			for i := range straight {
				if got[i] != straight[i] {
					t.Fatalf("%s: loss diverges at step %d: straight %v vs resumed %v",
						kind, i, straight[i], got[i])
				}
			}
		})
	}
}

// TestResumeWithoutStateDiverges is the negative control: restoring only the
// weights (v1 semantics) and a fresh optimizer generally does NOT reproduce
// the straight run, because the momentum buffers and schedule position are
// gone. This is what the v2 format exists to fix.
func TestResumeWithoutStateDiverges(t *testing.T) {
	const total, split = 8, 4
	gen, err := data.NewLearnable(8, 3, 16, 4, 29)
	if err != nil {
		t.Fatal(err)
	}
	batches := make([]data.Batch, total)
	for i := range batches {
		batches[i] = gen.Next()
	}

	mA := tinyModel(3, 8)
	straight := lossTrajectory(t, mA, newTestOptimizer("momentum"), batches)

	mB := tinyModel(3, 8)
	optB := newTestOptimizer("momentum")
	lossTrajectory(t, mB, optB, batches[:split])
	var buf bytes.Buffer
	if err := SaveTrainingCheckpoint(&buf, mB, nil); err != nil { // weights only
		t.Fatal(err)
	}
	mC := tinyModel(999, 8)
	if _, err := LoadTrainingCheckpoint(bytes.NewReader(buf.Bytes()), mC); err != nil {
		t.Fatal(err)
	}
	rest := lossTrajectory(t, mC, newTestOptimizer("momentum"), batches[split:])

	same := true
	for i := range rest {
		if rest[i] != straight[split+i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("weights-only resume unexpectedly matched the straight run; the v2 state would be redundant")
	}
}

// TestTrainingCheckpointCapturesState: the v2 round trip restores step,
// schedule position, optimizer name, and velocity slots exactly.
func TestTrainingCheckpointCapturesState(t *testing.T) {
	gen, err := data.NewLearnable(8, 3, 16, 4, 41)
	if err != nil {
		t.Fatal(err)
	}
	m := tinyModel(5, 8)
	opt := newTestOptimizer("momentum")
	tr, err := New(Config{Model: m, Optimizer: opt})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := tr.Step(gen.Next()); err != nil {
			t.Fatal(err)
		}
	}
	tr.Close()

	st := CaptureTrainState(opt, 3)
	if st.SchedStep != 3 {
		t.Fatalf("captured schedule position = %d, want 3", st.SchedStep)
	}
	if len(st.Slots) == 0 {
		t.Fatal("momentum must export velocity slots")
	}
	var buf bytes.Buffer
	if err := SaveTrainingCheckpoint(&buf, m, st); err != nil {
		t.Fatal(err)
	}

	m2 := tinyModel(1234, 8)
	opt2 := newTestOptimizer("momentum")
	st2, err := LoadTrainingCheckpoint(bytes.NewReader(buf.Bytes()), m2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Version != 2 || st2.Step != 3 || st2.SchedStep != 3 {
		t.Fatalf("restored state = %+v", st2)
	}
	if st2.Optimizer != opt.Name() {
		t.Fatalf("optimizer name %q, want %q", st2.Optimizer, opt.Name())
	}
	if len(st2.Slots) != len(st.Slots) {
		t.Fatalf("slot count %d, want %d", len(st2.Slots), len(st.Slots))
	}
	for i, s := range st2.Slots {
		if s.Var != st.Slots[i].Var || s.Name != st.Slots[i].Name {
			t.Fatalf("slot %d = %s/%s, want %s/%s", i, s.Var, s.Name, st.Slots[i].Var, st.Slots[i].Name)
		}
		if s.Data.MaxAbsDiff(st.Slots[i].Data) != 0 {
			t.Fatalf("slot %s/%s data differs after round trip", s.Var, s.Name)
		}
	}
	if err := RestoreTrainState(m2, opt2, st2); err != nil {
		t.Fatal(err)
	}
	if got := opt2.(*ScheduledOptimizer).Position(); got != 3 {
		t.Fatalf("restored schedule position = %d, want 3", got)
	}
}

// v1Fixture is a v1 (weights-only) checkpoint of tinyModel(6, 2), written
// by the v1 writer before it was retired.
const v1Fixture = "testdata/v1.ckpt"

// TestV1CheckpointStillLoads: the compatibility rule — a v1 (weights-only)
// file loads, reporting Version 1 with zero training state.
func TestV1CheckpointStillLoads(t *testing.T) {
	m := tinyModel(6, 2)
	for _, v := range m.G.Variables() {
		v.Materialize()
	}
	m2 := tinyModel(7, 2)
	st, err := LoadTrainingCheckpointFile(v1Fixture, m2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 || st.Step != 0 || st.SchedStep != 0 || len(st.Slots) != 0 {
		t.Fatalf("v1 state = %+v, want zero training state", st)
	}
	for i, v := range m2.G.Variables() {
		if v.Value.MaxAbsDiff(m.G.Variables()[i].Value) != 0 {
			t.Fatalf("variable %s not restored from v1", v.Name)
		}
	}
}

// TestTrainingCheckpointDetectsCorruption flips one byte at every position
// of a small v2 checkpoint; no corruption may load successfully... except
// flips the CRC32 cannot see are impossible for single-byte flips, so every
// position must error.
func TestTrainingCheckpointDetectsCorruption(t *testing.T) {
	m := tinyModel(8, 2)
	opt := newTestOptimizer("momentum")
	var buf bytes.Buffer
	if err := SaveTrainingCheckpoint(&buf, m, CaptureTrainState(opt, 5)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Exhaustive single-byte flips are too slow for the full stream; probe a
	// spread of positions including the header, both sections, and the CRC.
	positions := []int{0, 4, 8, 16, 20, len(raw) / 4, len(raw) / 2, 3 * len(raw) / 4, len(raw) - 2, len(raw) - 1}
	for _, pos := range positions {
		t.Run(fmt.Sprintf("pos%d", pos), func(t *testing.T) {
			cp := append([]byte(nil), raw...)
			cp[pos] ^= 0xff
			m2 := tinyModel(8, 2)
			if _, err := LoadTrainingCheckpoint(bytes.NewReader(cp), m2); err == nil {
				t.Fatalf("flip at %d of %d loaded successfully", pos, len(raw))
			}
		})
	}
}

// TestTrainingCheckpointTruncation: every strict prefix must error, never
// panic or succeed.
func TestTrainingCheckpointTruncation(t *testing.T) {
	m := tinyModel(9, 2)
	opt := newTestOptimizer("lars")
	var buf bytes.Buffer
	if err := SaveTrainingCheckpoint(&buf, m, CaptureTrainState(opt, 2)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 3, 4, 7, 8, 20, len(raw) / 3, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		m2 := tinyModel(9, 2)
		if _, err := LoadTrainingCheckpoint(bytes.NewReader(raw[:n]), m2); err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded successfully", n, len(raw))
		}
	}
}
