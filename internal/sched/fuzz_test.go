package sched

import (
	"bytes"
	"testing"
)

// FuzzDecodeWitness feeds arbitrary bytes to DecodeWitness, the decoder of
// `sctrun -replay` files: every input must end in an error or a witness whose
// every step names a thread, and a decoded witness must encode to bytes that
// decode to the same encoding. Run it with
// `go test -run xxx -fuzz FuzzDecodeWitness ./internal/sched/`.
func FuzzDecodeWitness(f *testing.F) {
	seed, err := (&WitnessFile{
		Benchmark: "chess.WSQ", Technique: "IDB", Schedule: Schedule{0, 0, 1, 2, 1},
		Racy: []string{"var/x"}, PC: 2, DC: 2, Failure: "assertion in T1: item 1 obtained twice",
	}).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"schedule":[0,-3]}`))
	f.Add([]byte(`{"schedule":null,"racy":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := DecodeWitness(data)
		if err != nil {
			if w != nil {
				t.Fatalf("DecodeWitness returned a witness and the error %v", err)
			}
			return
		}
		for i, id := range w.Schedule {
			if id < 0 {
				t.Fatalf("decoded step %d names thread %d", i, id)
			}
		}
		enc, err := w.Encode()
		if err != nil {
			t.Fatalf("a decoded witness does not encode: %v", err)
		}
		again, err := DecodeWitness(enc)
		if err != nil {
			t.Fatalf("an encoded witness does not decode: %v\n%s", err, enc)
		}
		if enc2, _ := again.Encode(); !bytes.Equal(enc, enc2) {
			t.Fatalf("witness changed across a round trip:\n%s\n%s", enc, enc2)
		}
	})
}
