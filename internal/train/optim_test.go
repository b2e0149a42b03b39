package train

import (
	"bytes"
	"path/filepath"
	"testing"

	"dnnperf/internal/data"
	"dnnperf/internal/graph"
	"dnnperf/internal/models"
	"dnnperf/internal/tensor"
)

// quadGraph builds a 1-variable model whose loss landscape is easy to
// reason about: logits = x @ w with identity-ish input.
func quadGraph() (*models.Model, *graph.Node) {
	g := graph.New()
	x := g.Input("x", 1, 2)
	w := g.Variable("w", []int{2, 2}, graph.ConstInit(tensor.FromSlice([]float32{1, 0, 0, 1}, 2, 2)))
	b := g.Variable("b", []int{2}, graph.Zeros)
	logits := g.Apply(graph.DenseOp{}, "fc", x, w, b)
	return &models.Model{Name: "quad", G: g, Input: x, Logits: logits}, w
}

func TestNewOptimizerRegistry(t *testing.T) {
	for _, name := range []string{"", "sgd", "momentum", "lars"} {
		opt, err := NewOptimizer(name, 0.1)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if opt.Name() == "" {
			t.Fatalf("%q: empty name", name)
		}
	}
	if _, err := NewOptimizer("adamw", 0.1); err == nil {
		t.Fatal("unknown optimizer must error")
	}
}

func TestSGDStepDirection(t *testing.T) {
	m, w := quadGraph()
	w.Materialize()
	w.Grad.Fill(1)
	(&SGD{LR: 0.5}).Step(tensor.Serial, m.G)
	if w.Value.At(0, 0) != 0.5 || w.Value.At(0, 1) != -0.5 {
		t.Fatalf("SGD step wrong: %v", w.Value.Data())
	}
}

func TestSGDWeightDecayShrinks(t *testing.T) {
	m, w := quadGraph()
	w.Materialize()
	w.Grad.Zero()
	(&SGD{LR: 0.1, WeightDecay: 0.5}).Step(tensor.Serial, m.G)
	// w -= lr * wd * w => 1 - 0.05 = 0.95 on the diagonal
	if d := w.Value.At(0, 0) - 0.95; d > 1e-6 || d < -1e-6 {
		t.Fatalf("weight decay wrong: %v", w.Value.At(0, 0))
	}
}

func TestMomentumAccumulates(t *testing.T) {
	m, w := quadGraph()
	w.Materialize()
	opt := NewMomentum(0.1, 0.9)
	// Two identical gradient steps: the second moves farther (velocity).
	w.Grad.Fill(1)
	opt.Step(tensor.Serial, m.G)
	afterOne := w.Value.At(0, 0)
	move1 := 1 - afterOne
	w.Grad.Fill(1)
	opt.Step(tensor.Serial, m.G)
	move2 := afterOne - w.Value.At(0, 0)
	if move2 <= move1 {
		t.Fatalf("momentum must accelerate: %g then %g", move1, move2)
	}
}

func TestNesterovDiffersFromPlain(t *testing.T) {
	mA, wA := quadGraph()
	mB, wB := quadGraph()
	wA.Materialize()
	wB.Materialize()
	plain := NewMomentum(0.1, 0.9)
	nest := NewMomentum(0.1, 0.9)
	nest.Nesterov = true
	for i := 0; i < 3; i++ {
		wA.Grad.Fill(1)
		plain.Step(tensor.Serial, mA.G)
		wB.Grad.Fill(1)
		nest.Step(tensor.Serial, mB.G)
	}
	if wA.Value.MaxAbsDiff(wB.Value) == 0 {
		t.Fatal("Nesterov must differ from plain momentum")
	}
}

func TestLARSScalesByLayerNorm(t *testing.T) {
	m, w := quadGraph()
	w.Materialize()
	opt := NewLARS(1.0)
	w.Grad.Fill(100) // huge gradient: LARS should temper the step
	before := w.Value.Clone()
	opt.Step(tensor.Serial, m.G)
	step := before.MaxAbsDiff(w.Value)
	// Plain SGD at lr=1 would step 100; LARS scales by trust*|w|/|g|.
	if step > 1 {
		t.Fatalf("LARS step %g too large", step)
	}
	if step == 0 {
		t.Fatal("LARS must still move")
	}
}

func TestTrainingWithMomentumConverges(t *testing.T) {
	m := models.TinyCNN(models.Config{Batch: 8, ImageSize: 16, Classes: 4, Seed: 4})
	tr, err := New(Config{Model: m, IntraThreads: 2, LR: 0.05, Optimizer: NewMomentum(0.05, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	gen, err := data.NewLearnable(8, 3, 16, 4, 13)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := tr.Run(gen.Next, 25)
	if err != nil {
		t.Fatal(err)
	}
	if stats[len(stats)-1].Loss >= stats[0].Loss {
		t.Fatalf("momentum training did not converge: %.3f -> %.3f",
			stats[0].Loss, stats[len(stats)-1].Loss)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	m := models.TinyCNN(models.Config{Batch: 2, ImageSize: 16, Classes: 4, Seed: 6})
	for _, v := range m.G.Variables() {
		v.Materialize()
	}
	var buf bytes.Buffer
	if err := SaveTrainingCheckpoint(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	saved := make([]*tensor.Tensor, 0)
	for _, v := range m.G.Variables() {
		saved = append(saved, v.Value.Clone())
		v.Value.Fill(-7) // scramble
	}
	m2 := models.TinyCNN(models.Config{Batch: 2, ImageSize: 16, Classes: 4, Seed: 999})
	if _, err := LoadTrainingCheckpoint(bytes.NewReader(buf.Bytes()), m2); err != nil {
		t.Fatal(err)
	}
	for i, v := range m2.G.Variables() {
		if v.Value.MaxAbsDiff(saved[i]) != 0 {
			t.Fatalf("variable %s not restored", v.Name)
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	m := models.TinyCNN(models.Config{Batch: 2, ImageSize: 16, Classes: 4, Seed: 6})
	var buf bytes.Buffer
	if err := SaveTrainingCheckpoint(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0xff // flip a payload byte
	m2 := models.TinyCNN(models.Config{Batch: 2, ImageSize: 16, Classes: 4, Seed: 6})
	if _, err := LoadTrainingCheckpoint(bytes.NewReader(raw), m2); err == nil {
		t.Fatal("corruption must be detected")
	}
}

func TestCheckpointRejectsBadMagicAndShape(t *testing.T) {
	m := models.TinyCNN(models.Config{Batch: 2, ImageSize: 16, Classes: 4, Seed: 6})
	if _, err := LoadTrainingCheckpoint(bytes.NewReader([]byte("NOPE....")), m); err == nil {
		t.Fatal("bad magic must error")
	}
	// Save a 16px model, load into a model with different head: class count
	// changes the fc shapes.
	var buf bytes.Buffer
	if err := SaveTrainingCheckpoint(&buf, m, nil); err != nil {
		t.Fatal(err)
	}
	other := models.TinyCNN(models.Config{Batch: 2, ImageSize: 16, Classes: 7, Seed: 6})
	if _, err := LoadTrainingCheckpoint(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("shape mismatch must error")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	m := models.TinyCNN(models.Config{Batch: 2, ImageSize: 16, Classes: 4, Seed: 8})
	for _, v := range m.G.Variables() {
		v.Materialize()
	}
	if err := SaveTrainingCheckpointFile(path, m, nil); err != nil {
		t.Fatal(err)
	}
	m2 := models.TinyCNN(models.Config{Batch: 2, ImageSize: 16, Classes: 4, Seed: 1})
	if _, err := LoadTrainingCheckpointFile(path, m2); err != nil {
		t.Fatal(err)
	}
	if m2.G.Variables()[0].Value.MaxAbsDiff(m.G.Variables()[0].Value) != 0 {
		t.Fatal("file round trip failed")
	}
	if _, err := LoadTrainingCheckpointFile(filepath.Join(dir, "missing.ckpt"), m2); err == nil {
		t.Fatal("missing file must error")
	}
}

// Checkpoint + resume must continue training seamlessly.
func TestCheckpointResumeTraining(t *testing.T) {
	gen, _ := data.NewLearnable(8, 3, 16, 4, 17)
	batches := make([]data.Batch, 10)
	for i := range batches {
		batches[i] = gen.Next()
	}

	// Continuous run.
	mA := models.TinyCNN(models.Config{Batch: 8, ImageSize: 16, Classes: 4, Seed: 2})
	trA, _ := New(Config{Model: mA, LR: 0.05})
	defer trA.Close()
	for _, b := range batches {
		if _, err := trA.Step(b); err != nil {
			t.Fatal(err)
		}
	}

	// Split run with a checkpoint in the middle.
	mB := models.TinyCNN(models.Config{Batch: 8, ImageSize: 16, Classes: 4, Seed: 2})
	trB, _ := New(Config{Model: mB, LR: 0.05})
	for _, b := range batches[:5] {
		if _, err := trB.Step(b); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := SaveTrainingCheckpoint(&buf, mB, nil); err != nil {
		t.Fatal(err)
	}
	trB.Close()

	mC := models.TinyCNN(models.Config{Batch: 8, ImageSize: 16, Classes: 4, Seed: 777})
	if _, err := LoadTrainingCheckpoint(bytes.NewReader(buf.Bytes()), mC); err != nil {
		t.Fatal(err)
	}
	trC, _ := New(Config{Model: mC, LR: 0.05})
	defer trC.Close()
	for _, b := range batches[5:] {
		if _, err := trC.Step(b); err != nil {
			t.Fatal(err)
		}
	}

	for i, v := range mC.G.Variables() {
		if d := v.Value.MaxAbsDiff(mA.G.Variables()[i].Value); d > 1e-5 {
			t.Fatalf("resume drifted on %s by %g", v.Name, d)
		}
	}
}
