package train

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"

	"dnnperf/internal/graph"
	"dnnperf/internal/models"
	"dnnperf/internal/tensor"
)

// Checkpoint format (little endian):
//
// v1 — weights only (read, no longer written):
//
//	magic "DNPF" | version u32 | varCount u32 |
//	repeat: nameLen u32 | name | rank u32 | dims u32... | payload f32... |
//	crc32(IEEE) of everything before it.
//
// v2 — full training state, enough for a bit-exact resume:
//
//	magic "DNPF" | version u32 |
//	step u64 | schedStep u64 | optNameLen u32 | optName |
//	varCount u32 | variables (as v1) |
//	slotCount u32 |
//	repeat: varNameLen u32 | varName | slotNameLen u32 | slotName |
//	        rank u32 | dims u32... | payload f32... |
//	crc32(IEEE) of everything before it.
//
// Compatibility rule: v1 checkpoints still load (weights only — the
// returned TrainState has Step 0 and no slots); v2 additionally captures
// the global step, the LR-schedule position, and the optimizer's
// per-variable buffers (Momentum/LARS velocity).
const (
	ckptMagic     = "DNPF"
	ckptVersion   = 1
	ckptVersionV2 = 2
)

// Sanity caps for untrusted checkpoint input. Shapes are validated against
// these caps and against the model's own shapes before any payload-sized
// buffer is allocated, so a corrupt or hostile stream cannot demand a
// multi-GB allocation (or overflow the byte count) ahead of the CRC check.
const (
	maxCkptRank    = 8
	maxCkptDim     = 1 << 24 // single dimension
	maxCkptElems   = 1 << 26 // total elements per tensor (256 MiB of f32)
	maxCkptNameLen = 1 << 16
)

// StateSlot is one per-variable optimizer buffer (e.g. a momentum velocity).
type StateSlot struct {
	Var  string // variable the buffer belongs to
	Name string // slot name, e.g. "velocity"
	Data *tensor.Tensor
}

// TrainState is everything beyond the weights that a bit-exact resume
// needs: the number of completed steps, the LR-schedule position, and the
// optimizer's per-variable slots.
type TrainState struct {
	Version   int // checkpoint version the state was read from
	Step      int64
	SchedStep int64
	Optimizer string
	Slots     []StateSlot
}

// CaptureTrainState snapshots the training position and optimizer state for
// a v2 checkpoint. step is the number of completed steps. The returned
// slots alias the optimizer's live buffers; serialize before the next Step.
func CaptureTrainState(opt Optimizer, step int64) *TrainState {
	st := &TrainState{Version: ckptVersionV2, Step: step}
	if opt == nil {
		return st
	}
	st.Optimizer = opt.Name()
	if so, ok := opt.(*ScheduledOptimizer); ok {
		st.SchedStep = so.Position()
	}
	if so, ok := opt.(StatefulOptimizer); ok {
		st.Slots = so.ExportState()
	}
	return st
}

// RestoreTrainState applies a loaded training state to a freshly
// constructed optimizer: the schedule position and the per-variable slots.
// The weights must already have been restored into m.
func RestoreTrainState(m *models.Model, opt Optimizer, st *TrainState) error {
	if st == nil || opt == nil {
		return nil
	}
	if so, ok := opt.(*ScheduledOptimizer); ok {
		so.SetPosition(st.SchedStep)
	}
	if len(st.Slots) == 0 {
		return nil
	}
	so, ok := opt.(StatefulOptimizer)
	if !ok {
		return fmt.Errorf("train: checkpoint carries %d optimizer slots but %s cannot import state",
			len(st.Slots), opt.Name())
	}
	return so.ImportState(m.G, st.Slots)
}

// SaveTrainingCheckpoint writes a v2 checkpoint: the model's weights plus
// the training state (step, schedule position, optimizer slots).
func SaveTrainingCheckpoint(w io.Writer, m *models.Model, st *TrainState) error {
	if st == nil {
		st = &TrainState{}
	}
	crc := crc32.NewIEEE()
	out := io.MultiWriter(w, crc)

	if _, err := io.WriteString(out, ckptMagic); err != nil {
		return err
	}
	if err := writeU32(out, ckptVersionV2); err != nil {
		return err
	}
	if err := writeU64(out, uint64(st.Step)); err != nil {
		return err
	}
	if err := writeU64(out, uint64(st.SchedStep)); err != nil {
		return err
	}
	if err := writeString(out, st.Optimizer); err != nil {
		return err
	}
	if err := writeVars(out, m); err != nil {
		return err
	}
	if err := writeU32(out, uint32(len(st.Slots))); err != nil {
		return err
	}
	for _, s := range st.Slots {
		if err := writeString(out, s.Var); err != nil {
			return err
		}
		if err := writeString(out, s.Name); err != nil {
			return err
		}
		if err := writeTensor(out, s.Data); err != nil {
			return err
		}
	}
	return writeTrailer(w, crc)
}

// LoadTrainingCheckpoint restores variables into the model and returns the
// training state. A v1 checkpoint yields a zero state (Version 1, weights
// only); a v2 checkpoint yields the saved step, schedule position, and
// optimizer slots, which RestoreTrainState applies to an optimizer.
func LoadTrainingCheckpoint(r io.Reader, m *models.Model) (*TrainState, error) {
	crc := crc32.NewIEEE()
	in := io.TeeReader(r, crc)

	magic := make([]byte, 4)
	if _, err := io.ReadFull(in, magic); err != nil {
		return nil, fmt.Errorf("train: checkpoint header: %w", err)
	}
	if string(magic) != ckptMagic {
		return nil, fmt.Errorf("train: bad checkpoint magic %q", magic)
	}
	version, err := readU32(in)
	if err != nil {
		return nil, err
	}
	st := &TrainState{Version: int(version)}
	switch version {
	case ckptVersion:
	case ckptVersionV2:
		step, err := readU64(in)
		if err != nil {
			return nil, err
		}
		schedStep, err := readU64(in)
		if err != nil {
			return nil, err
		}
		optName, err := readString(in, 256)
		if err != nil {
			return nil, fmt.Errorf("train: optimizer name: %w", err)
		}
		st.Step, st.SchedStep, st.Optimizer = int64(step), int64(schedStep), optName
	default:
		return nil, fmt.Errorf("train: unsupported checkpoint version %d", version)
	}

	byName := make(map[string]*graph.Node)
	for _, v := range m.G.Variables() {
		byName[v.Name] = v
	}

	count, err := readU32(in)
	if err != nil {
		return nil, err
	}
	if int(count) > len(byName) {
		return nil, fmt.Errorf("train: corrupt checkpoint (%d variables, model has %d)", count, len(byName))
	}
	for i := uint32(0); i < count; i++ {
		if err := readVariableInto(in, byName); err != nil {
			return nil, err
		}
	}

	if version == ckptVersionV2 {
		slotCount, err := readU32(in)
		if err != nil {
			return nil, err
		}
		// Optimizers here keep at most a handful of slots per variable.
		if int(slotCount) > 8*len(byName) {
			return nil, fmt.Errorf("train: corrupt checkpoint (%d optimizer slots)", slotCount)
		}
		for i := uint32(0); i < slotCount; i++ {
			slot, err := readSlot(in, byName)
			if err != nil {
				return nil, err
			}
			st.Slots = append(st.Slots, slot)
		}
	}

	want := crc.Sum32()
	got, err := readU32(r) // trailer is outside the checksum
	if err != nil {
		return nil, fmt.Errorf("train: checkpoint trailer: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("train: checkpoint checksum mismatch (%08x vs %08x)", got, want)
	}
	return st, nil
}

// readVariableInto reads one variable record directly into the matching
// model buffer. The shape is validated against the caps and against the
// model's own shape before the payload-sized read buffer is allocated.
func readVariableInto(in io.Reader, byName map[string]*graph.Node) error {
	name, err := readString(in, maxCkptNameLen)
	if err != nil {
		return fmt.Errorf("train: variable name: %w", err)
	}
	shape, n, err := readShape(in)
	if err != nil {
		return fmt.Errorf("train: variable %q: %w", name, err)
	}
	v, ok := byName[name]
	if !ok {
		return fmt.Errorf("train: checkpoint variable %q not in model", name)
	}
	v.Materialize()
	if !tensor.ShapeEq(v.Value.Shape(), shape) {
		return fmt.Errorf("train: variable %q shape %v in checkpoint, %v in model",
			name, shape, v.Value.Shape())
	}
	return readFloatsInto(in, v.Value.Data(), n)
}

// readSlot reads one optimizer-slot record; the slot's shape must match its
// variable's shape in the model.
func readSlot(in io.Reader, byName map[string]*graph.Node) (StateSlot, error) {
	varName, err := readString(in, maxCkptNameLen)
	if err != nil {
		return StateSlot{}, fmt.Errorf("train: slot variable name: %w", err)
	}
	slotName, err := readString(in, 64)
	if err != nil {
		return StateSlot{}, fmt.Errorf("train: slot name: %w", err)
	}
	shape, n, err := readShape(in)
	if err != nil {
		return StateSlot{}, fmt.Errorf("train: slot %q/%q: %w", varName, slotName, err)
	}
	v, ok := byName[varName]
	if !ok {
		return StateSlot{}, fmt.Errorf("train: checkpoint slot for unknown variable %q", varName)
	}
	v.Materialize()
	if !tensor.ShapeEq(v.Value.Shape(), shape) {
		return StateSlot{}, fmt.Errorf("train: slot %q/%q shape %v in checkpoint, variable is %v",
			varName, slotName, shape, v.Value.Shape())
	}
	t := tensor.New(shape...)
	if err := readFloatsInto(in, t.Data(), n); err != nil {
		return StateSlot{}, err
	}
	return StateSlot{Var: varName, Name: slotName, Data: t}, nil
}

// readShape reads rank + dims, enforcing the sanity caps so the element
// count can neither explode nor overflow before anything is allocated.
func readShape(in io.Reader) ([]int, int, error) {
	rank, err := readU32(in)
	if err != nil {
		return nil, 0, err
	}
	if rank > maxCkptRank {
		return nil, 0, fmt.Errorf("corrupt checkpoint (rank %d)", rank)
	}
	shape := make([]int, rank)
	n := 1
	for d := range shape {
		v, err := readU32(in)
		if err != nil {
			return nil, 0, err
		}
		if v == 0 || v > maxCkptDim {
			return nil, 0, fmt.Errorf("corrupt checkpoint (dim %d)", v)
		}
		shape[d] = int(v)
		n *= int(v)
		if n > maxCkptElems {
			return nil, 0, fmt.Errorf("corrupt checkpoint (%d elements exceeds cap)", n)
		}
	}
	return shape, n, nil
}

func readFloatsInto(in io.Reader, dst []float32, n int) error {
	buf := make([]byte, 4*n)
	if _, err := io.ReadFull(in, buf); err != nil {
		return err
	}
	for j := range dst {
		dst[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
	}
	return nil
}

// writeVars writes the variable section shared by v1 and v2.
func writeVars(out io.Writer, m *models.Model) error {
	vars := m.G.Variables()
	if err := writeU32(out, uint32(len(vars))); err != nil {
		return err
	}
	for _, v := range vars {
		v.Materialize()
		if err := writeString(out, v.Name); err != nil {
			return err
		}
		if err := writeTensor(out, v.Value); err != nil {
			return err
		}
	}
	return nil
}

func writeTensor(out io.Writer, t *tensor.Tensor) error {
	shape := t.Shape()
	if err := writeU32(out, uint32(len(shape))); err != nil {
		return err
	}
	for _, d := range shape {
		if err := writeU32(out, uint32(d)); err != nil {
			return err
		}
	}
	buf := make([]byte, 4*t.Len())
	for i, f := range t.Data() {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
	}
	_, err := out.Write(buf)
	return err
}

func writeTrailer(w io.Writer, crc interface{ Sum32() uint32 }) error {
	// Trailer: checksum of everything written so far (not through crc).
	var tr [4]byte
	binary.LittleEndian.PutUint32(tr[:], crc.Sum32())
	_, err := w.Write(tr[:])
	return err
}

// SaveTrainingCheckpointFile writes a v2 checkpoint to path atomically and
// durably.
func SaveTrainingCheckpointFile(path string, m *models.Model, st *TrainState) error {
	return saveFileAtomic(path, func(w io.Writer) error { return SaveTrainingCheckpoint(w, m, st) })
}

// LoadTrainingCheckpointFile restores weights and training state from path.
func LoadTrainingCheckpointFile(path string, m *models.Model) (*TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadTrainingCheckpoint(bufio.NewReader(f), m)
}

// GCCheckpoints removes old checkpoint files from dir, keeping the `keep`
// newest VALID ones (validated against a scratch model from newModel, like
// restore does). Only files strictly older than the keep-th newest valid
// checkpoint are deleted, so the newest valid file always survives, and
// corrupt-but-newer files stay in place as evidence without counting toward
// the quota — the corruption-fallback path keeps working. If fewer than
// `keep` valid checkpoints exist, nothing is deleted. Returns the removed
// paths.
func GCCheckpoints(dir string, keep int, newModel func() *models.Model) ([]string, error) {
	if keep < 1 || newModel == nil {
		return nil, nil
	}
	paths, err := filepath.Glob(filepath.Join(dir, "ckpt-*.dnpf"))
	if err != nil || len(paths) <= keep {
		return nil, err
	}
	// %08d-padded step numbers sort lexicographically; newest first.
	sort.Sort(sort.Reverse(sort.StringSlice(paths)))
	valid, cut := 0, -1
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		if _, err := LoadTrainingCheckpoint(bytes.NewReader(b), newModel()); err != nil {
			continue
		}
		if valid++; valid == keep {
			cut = i
			break
		}
	}
	if cut < 0 {
		return nil, nil
	}
	var removed []string
	for _, p := range paths[cut+1:] {
		if err := os.Remove(p); err == nil {
			removed = append(removed, p)
		}
	}
	return removed, nil
}

// saveFileAtomic writes through a temp file and renames into place. The
// temp file is fsynced before the rename and the parent directory after it,
// so a crash right after "save succeeded" cannot leave a missing, empty, or
// torn file behind the reported success.
func saveFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename is durable. Filesystems
// that reject directory fsync are tolerated — the rename was still atomic.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU64(w io.Writer, v uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeString(w io.Writer, s string) error {
	if err := writeU32(w, uint32(len(s))); err != nil {
		return err
	}
	_, err := io.WriteString(w, s)
	return err
}

func readU32(r io.Reader) (uint32, error) {
	var b [4]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

func readU64(r io.Reader) (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}

func readString(r io.Reader, maxLen uint32) (string, error) {
	n, err := readU32(r)
	if err != nil {
		return "", err
	}
	if n > maxLen {
		return "", fmt.Errorf("corrupt string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
