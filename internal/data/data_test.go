package data

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestSyntheticValidation(t *testing.T) {
	if _, err := NewSynthetic(0, 3, 8, 10, 1); err == nil {
		t.Fatal("zero batch must error")
	}
	if _, err := NewSynthetic(4, 3, 8, 1, 1); err == nil {
		t.Fatal("one class must error")
	}
}

func TestSyntheticShapesAndLabels(t *testing.T) {
	g, err := NewSynthetic(4, 3, 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Next()
	shape := b.Images.Shape()
	if shape[0] != 4 || shape[1] != 3 || shape[2] != 8 || shape[3] != 8 {
		t.Fatalf("shape %v", shape)
	}
	if len(b.Labels) != 4 {
		t.Fatalf("labels %v", b.Labels)
	}
	for _, l := range b.Labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label out of range: %d", l)
		}
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a, _ := NewSynthetic(4, 3, 8, 10, 5)
	b, _ := NewSynthetic(4, 3, 8, 10, 5)
	ba, bb := a.Next(), b.Next()
	if ba.Images.MaxAbsDiff(bb.Images) != 0 {
		t.Fatal("same seed must give same images")
	}
	for i := range ba.Labels {
		if ba.Labels[i] != bb.Labels[i] {
			t.Fatal("same seed must give same labels")
		}
	}
	// Successive batches must differ.
	b2 := a.Next()
	if ba.Images.MaxAbsDiff(b2.Images) == 0 {
		t.Fatal("successive batches must differ")
	}
}

func TestLearnableSignalPlanted(t *testing.T) {
	g, err := NewLearnable(8, 3, 8, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Next()
	// The labeled block must be markedly brighter than the image mean.
	blocks := 8 * 8 / 4
	for i, lbl := range b.Labels {
		var blockSum float64
		for j := 0; j < blocks; j++ {
			pos := lbl*blocks + j
			blockSum += float64(b.Images.At(i, 0, pos/8, pos%8))
		}
		blockMean := blockSum / float64(blocks)
		if blockMean < 1.5 { // background is U[0,1); planted adds 2.0
			t.Fatalf("image %d label %d: planted block mean %.2f too dim", i, lbl, blockMean)
		}
	}
}

func TestLearnableTooManyClasses(t *testing.T) {
	if _, err := NewLearnable(2, 1, 2, 10, 1); err == nil {
		t.Fatal("2x2 image cannot encode 10 classes")
	}
}

func TestShardDistinctPerRank(t *testing.T) {
	f := func(seed int64) bool {
		return Shard(seed, 0) != Shard(seed, 1) && Shard(seed, 1) != Shard(seed, 2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestLearnableGoldenBatches pins the generator's pixels and labels: the
// SHA-256 of the first three batches of NewLearnable(4, 3, 16, 4, seed),
// recorded from the original At/Set implementation. A faster write path
// must plant exactly the same pixels.
func TestLearnableGoldenBatches(t *testing.T) {
	want := []string{
		"9c5595fc1fdf658545cc91a06665ba3f492ae6882098fb0b015ff19639b5c277",
		"3a48aa77390b87b8aea449cfa030e870fad976966c7396e5e46144387ee2cbed",
		"0b57ad0c93aa87b59e6036a45b13c98bc9e8c411a655fcd3434846926ad7f790",
	}
	g, err := NewLearnable(4, 3, 16, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		b := g.Next()
		h := sha256.New()
		var buf [4]byte
		for _, v := range b.Images.Data() {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(v))
			h.Write(buf[:])
		}
		for _, l := range b.Labels {
			binary.LittleEndian.PutUint32(buf[:], uint32(l))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != w {
			t.Errorf("batch %d: sha256 %s, want %s", i, got, w)
		}
	}
}
