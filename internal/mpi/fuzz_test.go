package mpi

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"strings"
	"testing"
)

// FuzzUnpackParts hardens the variable-length framing used by
// AllgatherBytes: arbitrary input must never panic, and every valid packing
// must round-trip.
func FuzzUnpackParts(f *testing.F) {
	f.Add(packParts(nil))
	f.Add(packParts([][]byte{{1, 2, 3}}))
	f.Add(packParts([][]byte{nil, []byte("hello"), {0}}))
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		parts, err := unpackParts(data)
		if err != nil {
			return
		}
		re := packParts(parts)
		parts2, err := unpackParts(re)
		if err != nil {
			t.Fatalf("re-pack failed: %v", err)
		}
		if len(parts2) != len(parts) {
			t.Fatalf("count mismatch %d vs %d", len(parts2), len(parts))
		}
		for i := range parts {
			if string(parts[i]) != string(parts2[i]) {
				t.Fatalf("part %d mismatch", i)
			}
		}
	})
}

// FuzzBytesToFloats ensures the float codec rejects bad lengths without
// panicking and round-trips valid payloads.
func FuzzBytesToFloats(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(floatsToBytes([]float32{1.5, -2.25, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := bytesToFloats(data)
		if err != nil {
			if len(data)%4 == 0 {
				t.Fatalf("aligned payload rejected: %v", err)
			}
			return
		}
		re := floatsToBytes(fs)
		if string(re) != string(data) {
			t.Fatal("float round trip mismatch")
		}
	})
}

// readFrameBytes feeds b to readFrame over a net.Pipe, the way a socket
// would deliver it, and closes both ends whatever readFrame made of it.
func readFrameBytes(b []byte) (uint32, []byte, TraceCtx, error) {
	w, r := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Write(b) // unblocked by r.Close below if readFrame gave up early
		w.Close()
	}()
	tag, payload, ctx, err := readFrame(r)
	r.Close()
	<-done
	return tag, payload, ctx, err
}

// FuzzFrameRoundTrip pins the TCP wire format from both ends: whatever
// (tag, payload, ctx) the one frame writer is given, the bytes on the wire
// are [4B len|tcpCtxFlag][4B tag][20B ctx, stamped frames only][payload]
// and readFrame recovers exactly what was written; arbitrary header bytes
// never panic; and a length above maxFrameBytes is rejected, with or
// without the context flag.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint32(7), []byte("payload"), uint32(0), uint32(0), uint32(0), uint64(0), []byte{}, uint32(0))
	f.Add(tagAllreduce, []byte{}, uint32(3), uint32(9), uint32(1), uint64(2)<<32|9, []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, uint32(1))
	f.Add(uint32(tcpGoodbyeTag), []byte{0}, uint32(0), uint32(0), uint32(0), uint64(1), []byte{1, 0, 0, 0x80, 5, 0, 0, 0, 1, 2}, ^uint32(0))
	f.Fuzz(func(t *testing.T, tag uint32, payload []byte, step, coll, origin uint32, span uint64, hdr []byte, over uint32) {
		ctx := TraceCtx{Step: step, Coll: coll, Origin: origin, Span: span}

		// Writer -> wire bytes, checked against the documented layout.
		w, r := net.Pipe()
		werr := make(chan error, 1)
		go func() {
			err := (&tcpConn{c: w}).writeFrame(tag, payload, ctx, 0)
			w.Close()
			werr <- err
		}()
		wire, _ := io.ReadAll(r)
		if err := <-werr; err != nil {
			t.Fatalf("writeFrame: %v", err)
		}
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		want = binary.LittleEndian.AppendUint32(want, tag)
		if span != 0 {
			want[3] |= 0x80
			want = binary.LittleEndian.AppendUint32(want, step)
			want = binary.LittleEndian.AppendUint32(want, coll)
			want = binary.LittleEndian.AppendUint32(want, origin)
			want = binary.LittleEndian.AppendUint64(want, span)
		}
		want = append(want, payload...)
		if !bytes.Equal(wire, want) {
			t.Fatalf("wire bytes\n got %x\nwant %x", wire, want)
		}

		// Wire bytes -> reader. An unstamped frame carries no context at all.
		gotTag, gotPayload, gotCtx, err := readFrameBytes(wire)
		if err != nil {
			t.Fatalf("readFrame of a written frame: %v", err)
		}
		if span == 0 {
			ctx = TraceCtx{}
		}
		if gotTag != tag || !bytes.Equal(gotPayload, payload) || gotCtx != ctx {
			t.Fatalf("round trip: got (%#x, %x, %+v), want (%#x, %x, %+v)", gotTag, gotPayload, gotCtx, tag, payload, ctx)
		}

		// Arbitrary bytes must not panic. A declared length readFrame would
		// accept is allocated before the payload is read, by design, so the
		// fuzzer only gets to declare small ones.
		declared := uint32(0)
		if len(hdr) >= 4 {
			declared = binary.LittleEndian.Uint32(hdr) &^ tcpCtxFlag
		}
		if declared <= 1<<16 || declared > maxFrameBytes {
			_, _, _, err := readFrameBytes(hdr)
			if declared > maxFrameBytes && len(hdr) >= 8 && err == nil {
				t.Fatalf("length %d accepted", declared)
			}
		}

		// Every length above the limit is rejected, flagged or not.
		n := uint32(maxFrameBytes + 1 + over%(maxFrameBytes-1))
		for _, word := range []uint32{n, n | tcpCtxFlag} {
			big := binary.LittleEndian.AppendUint32(nil, word)
			big = binary.LittleEndian.AppendUint32(big, tag)
			if _, _, _, err := readFrameBytes(big); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
				t.Fatalf("length word %#x: err = %v, want a limit error", word, err)
			}
		}
	})
}
