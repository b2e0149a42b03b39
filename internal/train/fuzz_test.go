package train

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoadCheckpoint hardens the checkpoint parser: arbitrary bytes — and in
// particular truncations and bit-flips of real v1 and v2 streams, which the
// seed corpus covers — must never panic or over-allocate, and anything that
// does load must round-trip byte-for-byte.
func FuzzLoadCheckpoint(f *testing.F) {
	m := tinyModel(17, 2)
	for _, v := range m.G.Variables() {
		v.Materialize()
	}
	v1, err := os.ReadFile(v1Fixture)
	if err != nil {
		f.Fatal(err)
	}
	var v2 bytes.Buffer
	if err := SaveTrainingCheckpoint(&v2, m, CaptureTrainState(newTestOptimizer("momentum"), 7)); err != nil {
		f.Fatal(err)
	}
	for _, raw := range [][]byte{v1, v2.Bytes()} {
		f.Add(raw)
		for _, n := range []int{0, 4, 8, len(raw) / 2, len(raw) - 1} {
			f.Add(append([]byte(nil), raw[:n]...))
		}
		for _, pos := range []int{0, 8, len(raw) / 2, len(raw) - 1} {
			cp := append([]byte(nil), raw...)
			cp[pos] ^= 0x80
			f.Add(cp)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("DNPF"))

	f.Fuzz(func(t *testing.T, data []byte) {
		m2 := tinyModel(17, 2)
		st, err := LoadTrainingCheckpoint(bytes.NewReader(data), m2)
		if err != nil {
			return
		}
		// Whatever loaded must save back to a loadable stream carrying the
		// same training state.
		var buf bytes.Buffer
		if err := SaveTrainingCheckpoint(&buf, m2, st); err != nil {
			t.Fatalf("re-save of loaded checkpoint failed: %v", err)
		}
		m3 := tinyModel(17, 2)
		st2, err := LoadTrainingCheckpoint(bytes.NewReader(buf.Bytes()), m3)
		if err != nil {
			t.Fatalf("re-saved checkpoint failed to load: %v", err)
		}
		if st2.Step != st.Step || st2.SchedStep != st.SchedStep || len(st2.Slots) != len(st.Slots) {
			t.Fatalf("round trip state mismatch: %+v vs %+v", st2, st)
		}
	})
}
