package cluster

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"
)

func mustEncode(t *testing.T, typ byte, v any) []byte {
	t.Helper()
	b, err := EncodeFrame(typ, v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFrameRoundTrip(t *testing.T) {
	in := AssignPayload{Unit: "a.c", Hash: "h1", Source: "int f(void){return 0;}",
		Spec: "fastpath f\n", Attempt: 2}
	buf := mustEncode(t, FrameAssign, in)
	var out AssignPayload
	if err := DecodeFrame(bytes.NewReader(buf), FrameAssign, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestFrameResultRoundTrip(t *testing.T) {
	in := ResultPayload{Unit: "a.c", Hash: "h1", Attempt: 1, Status: "ok",
		Report: []byte(`{"warnings":[]}`), Paths: []byte(`{"entries":{}}`),
		Warnings: 0, Worker: "127.0.0.1:1"}
	buf := mustEncode(t, FrameResult, in)
	var out ResultPayload
	if err := DecodeFrame(bytes.NewReader(buf), FrameResult, &out); err != nil {
		t.Fatal(err)
	}
	if out.Unit != in.Unit || out.Status != in.Status ||
		string(out.Report) != string(in.Report) || string(out.Paths) != string(in.Paths) {
		t.Fatalf("round trip: got %+v", out)
	}
}

// TestFrameMalformed is the rejection table from the issue: truncated,
// oversized, and otherwise damaged frames must come back as typed errors —
// never a panic, never a wedge (ReadFrame always terminates: it reads at
// most header + declared length bytes).
func TestFrameMalformed(t *testing.T) {
	good := mustEncode(t, FrameAssign, AssignPayload{Unit: "a.c", Hash: "h", Source: "x"})

	corrupt := func(mutate func([]byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mutate(b)
	}
	cases := []struct {
		name string
		in   []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", good[:7], ErrTruncated},
		{"truncated payload", good[:len(good)-3], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrBadMagic},
		{"unknown type", corrupt(func(b []byte) []byte { b[4] = 0x7f; return b }), ErrBadType},
		{"oversized length", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[5:9], MaxFramePayload+1)
			return b
		}), ErrOversized},
		{"length beyond body", corrupt(func(b []byte) []byte {
			binary.BigEndian.PutUint32(b[5:9], uint32(len(b))) // claims more than present
			return b
		}), ErrTruncated},
		{"checksum mismatch", corrupt(func(b []byte) []byte {
			b[len(b)-1] ^= 0x01
			return b
		}), ErrChecksum},
		{"garbage", []byte(strings.Repeat("PLSF", 8)), ErrBadType},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bytes.NewReader(tc.in))
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFrame(%q...) = %v, want %v", tc.name, err, tc.want)
			}
		})
	}
}

func TestDecodeFrameWrongType(t *testing.T) {
	buf := mustEncode(t, FrameAssign, AssignPayload{Unit: "a.c", Hash: "h", Source: "x"})
	var out ResultPayload
	if err := DecodeFrame(bytes.NewReader(buf), FrameResult, &out); !errors.Is(err, ErrBadType) {
		t.Fatalf("wrong-type decode = %v, want ErrBadType", err)
	}
}

func TestDecodeFramePayloadNotJSONForTarget(t *testing.T) {
	// A frame whose payload is valid JSON but not the target shape decodes
	// with an error, not a panic.
	buf := mustEncode(t, FrameAssign, []int{1, 2, 3})
	var out AssignPayload
	if err := DecodeFrame(bytes.NewReader(buf), FrameAssign, &out); err == nil {
		t.Fatal("mismatched payload decoded without error")
	}
}

func TestEncodeFrameRejectsOversized(t *testing.T) {
	big := ResultPayload{Unit: "a.c", Report: bytes.Repeat([]byte("1"), MaxFramePayload+1)}
	if _, err := EncodeFrame(FrameResult, big); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized encode = %v, want ErrOversized", err)
	}
}

// FuzzClusterFrame hammers the decoder with arbitrary bytes: it must never
// panic, and any accepted frame must re-encode to semantically identical
// payload bytes.
func FuzzClusterFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PLSF"))
	good, _ := EncodeFrame(FrameAssign, AssignPayload{Unit: "a.c", Hash: "h", Source: "int f;"})
	f.Add(good)
	res, _ := EncodeFrame(FrameResult, ResultPayload{Unit: "a.c", Status: "ok", Report: []byte(`{}`)})
	f.Add(res)
	f.Add(append(good[:9], good...))
	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted frames must round-trip: re-framing the payload yields
		// the same header + payload bytes as the accepted prefix.
		reencoded := make([]byte, frameHeaderLen+len(payload))
		copy(reencoded, frameMagic[:])
		reencoded[4] = typ
		binary.BigEndian.PutUint32(reencoded[5:9], uint32(len(payload)))
		binary.BigEndian.PutUint32(reencoded[9:13], binary.BigEndian.Uint32(data[9:13]))
		copy(reencoded[frameHeaderLen:], payload)
		if !bytes.Equal(reencoded, data[:frameHeaderLen+len(payload)]) {
			t.Fatalf("accepted frame does not round-trip")
		}
	})
}

func TestPeerFrameRoundTrips(t *testing.T) {
	get := PeerGetPayload{Key: "k1", Epoch: 7, From: "127.0.0.1:1"}
	var get2 PeerGetPayload
	if err := DecodeFrame(bytes.NewReader(mustEncode(t, FramePeerGet, get)), FramePeerGet, &get2); err != nil {
		t.Fatal(err)
	}
	if get2 != get {
		t.Fatalf("PeerGet round trip: got %+v, want %+v", get2, get)
	}

	ent := PeerEntryPayload{Key: "k1", Found: true, Entry: []byte(`{"key":"k1"}`), Epoch: 7}
	var ent2 PeerEntryPayload
	if err := DecodeFrame(bytes.NewReader(mustEncode(t, FramePeerEntry, ent)), FramePeerEntry, &ent2); err != nil {
		t.Fatal(err)
	}
	if ent2.Key != ent.Key || !ent2.Found || string(ent2.Entry) != string(ent.Entry) || ent2.Epoch != 7 {
		t.Fatalf("PeerEntry round trip: got %+v", ent2)
	}

	put := PeerPutPayload{Key: "k1", Entry: []byte(`{"key":"k1"}`), Epoch: 9, From: "127.0.0.1:2"}
	var put2 PeerPutPayload
	if err := DecodeFrame(bytes.NewReader(mustEncode(t, FramePeerPut, put)), FramePeerPut, &put2); err != nil {
		t.Fatal(err)
	}
	if put2.Key != put.Key || string(put2.Entry) != string(put.Entry) || put2.Epoch != 9 {
		t.Fatalf("PeerPut round trip: got %+v", put2)
	}
}

func TestPeerFrameTypesAreDistinct(t *testing.T) {
	// A peer-get frame must not decode as a peer-put (and so on): the type
	// byte, not the payload shape, is the authority.
	buf := mustEncode(t, FramePeerGet, PeerGetPayload{Key: "k"})
	var put PeerPutPayload
	if err := DecodeFrame(bytes.NewReader(buf), FramePeerPut, &put); !errors.Is(err, ErrBadType) {
		t.Fatalf("cross-type decode = %v, want ErrBadType", err)
	}
}
