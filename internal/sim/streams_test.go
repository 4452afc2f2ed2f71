package sim_test

import (
	"context"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"reflect"
	"testing"

	"memsched/internal/sim"
	"memsched/internal/trace"
	"memsched/internal/workload"
)

// The golden fixtures run three mixes, which reach 8 of the 26 Table 2
// applications. streamPins pins every application's random streams on its
// own, at two seeds: the first streamInstr instructions of its synthetic
// trace (kind, line and load dependence), and the integer fields of a short
// single-core run, which also cover the core's taken-branch, mispredict and
// far-jump draws. A change meant to leave the simulated machine alone must
// leave every pin as it is.
const (
	streamInstr = 200_000
	streamRun   = 10_000
)

var streamSeeds = [2]uint64{sim.EvalSeed, sim.ProfileSeed}

type streamPin struct{ trace, run uint64 }

var streamPins = map[byte][2]streamPin{
	'a': {{0x19ae740318614806, 0xac08e24c0f9b58a5}, {0x00c248217329e2e2, 0x43930fcad0d68eb9}},
	'b': {{0x5062a8390cb877aa, 0xbef854080c31b327}, {0xf91e2f3d34396a42, 0x3118902abcbe4f3f}},
	'c': {{0x0682d334e56181c1, 0xe3c6a1d1e335d905}, {0x3cec69eb536ff9e1, 0x35f864c528bf863d}},
	'd': {{0x077dd71c3188be58, 0xb674f40801579192}, {0xee822dcf2008ce8e, 0x64a33e5d5d8ed759}},
	'e': {{0x14cb7b8627723e16, 0xba4aeb6edcd95c62}, {0x56ccf25c60988180, 0xb52c5558e5c3df9a}},
	'f': {{0x626cf492f78b9379, 0x6bba0db483b2d782}, {0x08514e765f93454c, 0x57cd4cd18394cd64}},
	'g': {{0x40b9c447e1a6e8c3, 0x36bfa05a728b5889}, {0x8b877d0f16f2cfc9, 0x377ea71b52589ff1}},
	'h': {{0xd1e4ccdcf27bf162, 0x5008cab395af67f1}, {0x84ec933ca06ef775, 0xd011574826be0e02}},
	'i': {{0x9832d0066676e7f5, 0xa3db6a5faf00cbe4}, {0x53dc8ca5d4b9a856, 0xd95c9239be095722}},
	'j': {{0x3715a8afeebb5453, 0xf27dd11b7f03597a}, {0xc9b7c0c74d444a3c, 0x925be7024d4ccb21}},
	'k': {{0x2c83f755904d2a6f, 0x3eece61e5f4f52b8}, {0x4eced6918322cfcb, 0x9bac0357311b38d0}},
	'l': {{0xe6435d02722e7e8c, 0x888c5f1ea141adff}, {0x5e6f42bd2ca647b3, 0x3f36afb18da8ef1e}},
	'm': {{0x0a9c193dce2bfc45, 0xf677e29a1dfba4d9}, {0xd5f83bd836b15a14, 0xc85377d43e59d556}},
	'n': {{0x6b8c847ab5546e9e, 0x5a90c64e629f6591}, {0x49b4c596a13cc89d, 0xde91303ab959d48f}},
	'o': {{0x9740da9fda1863d3, 0xa889265a1e19f239}, {0x90fe07443181c5da, 0x3b60ff2b6f79227a}},
	'p': {{0x53e3c9ebb7d49aa5, 0x3970808a8201de26}, {0x89385178dcd71efc, 0xd71d10a7c1664b83}},
	'q': {{0x349e2537f8de2b0a, 0xa16f4543293eb6ca}, {0x4e65e108974f7e5b, 0x6e007127ecb0e684}},
	'r': {{0xce2659d5c21ed8b0, 0x8cb8d4948c004e6d}, {0xfa38e5dbf755f904, 0xa3c46a11e7156266}},
	's': {{0x122fcacf6cad77e1, 0x16ffdca54c8c3da4}, {0x4cc5b978fa1c3978, 0x6132dd67b6ae17e1}},
	't': {{0x6a2efff173b6060b, 0x6b589588d72282c7}, {0xccc1363a63e5085f, 0xad53758ba037cc06}},
	'u': {{0x4b9670361b538a27, 0x9b07361ffdc5f2a8}, {0x58724aee37cc0869, 0xb59819623cc72d97}},
	'v': {{0xd7b55eadfab113f6, 0xfeefdfdde1e22f9e}, {0xa8497c7311f79147, 0xf83ff158402dacf4}},
	'w': {{0x8060f40d89480918, 0x49a9d7056f63f3ce}, {0xefd039305c5aa2ba, 0x4fbe4aa05d654e42}},
	'x': {{0xfa1e9cc3c7547449, 0x38bf1a4160f776c1}, {0xf29c3b39127a81b9, 0x559b7e7accab9e80}},
	'y': {{0x3e877ec23d755b61, 0xca6cc7b7814d6a08}, {0x4ca444fc56430891, 0x2f4fb8f121c0f13b}},
	'z': {{0xde71151aaf0ee8ac, 0xb4324047059baac7}, {0x19a25da2cfd37aef, 0xf326c8b191ab5b3a}},
}

func TestStreamPins(t *testing.T) {
	for _, app := range workload.Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			t.Parallel()
			want, ok := streamPins[app.Code]
			for i, seed := range streamSeeds {
				got := streamPin{trace: traceDigest(t, app, seed), run: runDigest(t, app, seed)}
				if !ok || got != want[i] {
					t.Errorf("%c seed %#x: digests {trace: %#016x, run: %#016x}, pinned %+v",
						app.Code, seed, got.trace, got.run, want[i])
				}
			}
		})
	}
}

func traceDigest(t *testing.T, app workload.App, seed uint64) uint64 {
	g, err := trace.NewSynthetic(app.Params, workload.BaseFor(1), seed)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var ins trace.Instr
	var buf [10]byte
	for i := 0; i < streamInstr; i++ {
		g.Next(&ins)
		buf[0] = byte(ins.Kind)
		buf[1] = 0
		if ins.DepOnLoad {
			buf[1] = 1
		}
		binary.LittleEndian.PutUint64(buf[2:], ins.Line)
		h.Write(buf[:])
	}
	return h.Sum64()
}

func runDigest(t *testing.T, app workload.App, seed uint64) uint64 {
	res, err := sim.Run(context.Background(), sim.RunSpec{
		Apps: []workload.App{app}, Policy: "fcfs", Instr: streamRun, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	hashInts(h, reflect.ValueOf(res), true)
	return h.Sum64()
}

// hashInts feeds every integer and boolean field reachable from v into h,
// unexported ones included, apart from the top-level SkippedCycles, which
// describes the run loop rather than the machine (see sim.DiffResults).
func hashInts(h hash.Hash64, v reflect.Value, top bool) {
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if top && v.Type().Field(i).Name == "SkippedCycles" {
				continue
			}
			hashInts(h, v.Field(i), false)
		}
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			hashInts(h, v.Index(i), false)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		put(v.Uint())
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	}
}
