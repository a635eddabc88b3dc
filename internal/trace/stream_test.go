package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/isa"
	"repro/internal/isa/programs"
)

// streamTestRecipes is the equivalence corpus: every synthetic kernel
// plus every registered program, at sizes small enough to materialise
// quickly but large enough to cross many emission rounds.
func streamTestRecipes(t *testing.T) []Recipe {
	t.Helper()
	const n = 50_000
	rs := []Recipe{
		{Kernel: KernelStream, N: n},
		{Kernel: KernelStrided, N: n, Stride: 8},
		{Kernel: KernelStencil, N: n},
		{Kernel: KernelReduction, N: n},
		{Kernel: KernelBlocked, N: n},
		{Kernel: KernelPointerChase, N: n},
		{Kernel: KernelFPMix, N: n, Seed: 42},
	}
	for _, name := range programs.Names() {
		spec, ok := programs.Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		rs = append(rs, Recipe{
			Kernel:  KernelProgram,
			Program: name,
			Input:   spec.InputFor(20_000),
			Seed:    7,
		})
	}
	return rs
}

// streamPins are the SHA-256 digests of each streamTestRecipes entry,
// generated from the generators as they stood before streaming and
// materialisation were unified: the streamed prefix (all of a program's
// stream, whose length is pinned too), its warm footprint and, for
// programs, the static code image. They pin the exact instruction
// bytes the figure goldens and cached fingerprints were computed over.
var streamPins = map[string]struct {
	n                int64
	insts, warm, img string
}{
	"stream/n=50000/seed=0/stride=0": {50000,
		"a6a5cb4cdb9abca1d71b2a6d4ddbca4f6757c7478df1a107a7d383681e28c636",
		"a91f5a58b8cdedc9bac0f0d8cec233f2447ebf78292519174a03564d0176b872",
		""},
	"strided/n=50000/seed=0/stride=8": {50000,
		"3c8a96f066eeaa28583b305ea113a5375d055d02fe8d7571a56197b3c0814cc3",
		"deb08269f63a26052a12c06b89e34420f4fcc2fec3413e7c07ace3d13c767342",
		""},
	"stencil/n=50000/seed=0/stride=0": {50000,
		"202c1a2fba29e6196e7c0936a79b406c0883060b750fe962fcea869410d783e7",
		"c6bea98d36e954038ee91880cbb80284958f49db6f527170dd37f6601adf9a89",
		""},
	"reduction/n=50000/seed=0/stride=0": {50000,
		"635f9c34452870f6da836592c3fc8228488778d31080ae8e3afb67368dca33ac",
		"61f9647ad605ab2da7b94701726966845e2ff02bec415f56825213078a8cd425",
		""},
	"blocked/n=50000/seed=0/stride=0": {50000,
		"8ff5736c14aa2d33e4cfde25911daf4437e954c66c5fcff18787df97f65d2156",
		"907e1cc8b01d3c2b21c46047d444eb8324bffb7d320a83cd5635cec747bce1d9",
		""},
	"pointerchase/n=50000/seed=0/stride=0": {50000,
		"855d0dd108533f2c5a0cfd4aadc70f1ab3ff843379b39435365d5d3401d9f604",
		"346c6c1e18f2033b8ca82ebf7a12d19e83c10958d0be686111a0a330629ec965",
		""},
	"fpmix/n=50000/seed=42/stride=0": {50000,
		"3bc1263d64af9c122c8672470a18d7dee59317f8703ac62fbc29b4c39196f196",
		"0fa9359cef46f8bc0275fcd2b6c69813bd2002fd9ec4724a2392a78def20802e",
		""},
	"program/chase/input=2857/seed=7": {20001,
		"27a216863931c119898e4f974e714d4cb6a051366c372ad9335d615e4a656f5a",
		"57065838d215f7fc9574bc0f09af1dc7c6ad17cef686b7c3a657e28e7da53257",
		"3289ee7fc5faff1b85ab4ad0cd4efcec499878c019577e70882a11eff39eea5b"},
	"program/dhry/input=166/seed=7": {19675,
		"4de31e9deafa16e5f9aea72d70ec2140abb144820a0fb74ced4e891bea9dcbe5",
		"238c5834d30646861b6aa55f2888fe942ce8f35aafa3f5169d639af4ab5a4586",
		"0d10d4bc5677a912c648cbca478d30ee278f4522079bb83beacda747d01c66c8"},
	"program/hashjoin/input=625/seed=7": {19936,
		"0f0ff1bf6f809c334184a07adb6c96f555b3ede1fd08ff10031ec91ec4109ee4",
		"10bea3fa13f9419da17add319cda4e02c181e13a1458b6d801dd7c245e15755c",
		"3bd310cdacd1318c32351e09a925140b31123dab5431e51631594614944ece09"},
	"program/isort/input=115/seed=7": {21566,
		"881131338808a15d39c3e01c8779e0d9e2063d1a8fe81f9c8f36a83e40a0cc7a",
		"86ae7d5a6facdbfd1b8e5f04ebc4c718820a29a34e362f7df722ffa0f429d578",
		"49a0b09d721ed1037bb2dfedde0439da5f761545f465d31f35ef0bc8e42bf1db"},
	"program/memcpy/input=11428/seed=7": {20005,
		"1ab5a5fb96ff80fcd965fa40a23d6a93fe300a1d5338ab69639489f11e70d7f7",
		"0160efaec5c6ced8c157cf88ce8d94a83dafef12b1519e9fe5e13887e771e7d9",
		"3ca9a4c456a83e201c8549c703d4ac47f1def86d2049f174d2c954ad7e95e888"},
}

// hashInsts folds every field of each instruction into h.
func hashInsts(h hash.Hash, insts []isa.Inst) {
	var b [29]byte
	for _, in := range insts {
		b[0], b[1], b[2], b[3] = byte(in.Op), byte(in.Dest), byte(in.Src1), byte(in.Src2)
		binary.LittleEndian.PutUint64(b[4:], in.Addr)
		binary.LittleEndian.PutUint64(b[12:], in.PC)
		binary.LittleEndian.PutUint64(b[20:], in.Target)
		b[28] = 0
		if in.Taken {
			b[28] = 1
		}
		h.Write(b[:])
	}
}

// hashWarm folds one warm-up event into h.
func hashWarm(h hash.Hash, ev WarmEvent) {
	var b [9]byte
	binary.LittleEndian.PutUint64(b[:], ev.Addr)
	if ev.Fetch {
		b[8] = 1
	}
	h.Write(b[:])
}

// codeDigest hashes a static code image ("" for none).
func codeDigest(code StaticCode) string {
	if code == nil {
		return ""
	}
	h := sha256.New()
	for i := 0; i < code.Len(); i++ {
		hashInsts(h, []isa.Inst{code.At(i)})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// traceDigests hashes a trace's instructions, warm footprint and static
// code image.
func traceDigests(tr *Trace) (insts, warm, img string) {
	h := sha256.New()
	for i := int64(0); i < tr.Len(); i++ {
		hashInsts(h, []isa.Inst{tr.At(i)})
	}
	insts = hex.EncodeToString(h.Sum(nil))
	h.Reset()
	for _, ev := range tr.WarmFootprint() {
		hashWarm(h, ev)
	}
	return insts, hex.EncodeToString(h.Sum(nil)), codeDigest(tr.Code())
}

// TestStreamedMatchesMaterialised enforces the stream prefix contract
// against pinned digests: for every recipe, the segment stream read
// under adversarially odd chunk sizes (so buffer compaction and round
// boundaries are both crossed) and the one-shot Materialise() both
// hash to the recipe's pin: instructions, warm footprint (walked over
// a fresh stream and recorded by WarmFootprint) and code image.
// Program streams must additionally end at exactly the pinned length
// (the program halts at the same instruction either way).
func TestStreamedMatchesMaterialised(t *testing.T) {
	chunks := []int{1, 7, 113, 997, 4096, 10_000}
	for _, r := range streamTestRecipes(t) {
		r := r
		t.Run(r.String(), func(t *testing.T) {
			pin, pinned := streamPins[r.String()]
			st, err := r.OpenStream()
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			h := sha256.New()
			limit := int64(r.N)
			if r.Kernel == KernelProgram {
				limit = MaxRecipeInsts
			}
			for ci := 0; st.Pos() < limit; ci++ {
				n := chunks[ci%len(chunks)]
				if rem := limit - st.Pos(); int64(n) > rem {
					n = int(rem)
				}
				got, err := st.Peek(n)
				if err != nil {
					t.Fatalf("Peek(%d) at %d: %v", n, st.Pos(), err)
				}
				if len(got) == 0 {
					break
				}
				if len(got) != n && r.Kernel != KernelProgram {
					t.Fatalf("Peek(%d) at %d returned %d insts (stream ended early)", n, st.Pos(), len(got))
				}
				hashInsts(h, got)
				st.Skip(len(got))
			}
			streamed := hex.EncodeToString(h.Sum(nil))

			// The warm walk over a fresh stream, as sampled runs warm:
			// synthetic streams up to the prefix, programs to the halt.
			fresh, err := r.OpenStream()
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			warmLimit := st.Pos()
			if r.Kernel == KernelProgram {
				warmLimit = 0
			}
			h.Reset()
			if err := fresh.WalkWarm(warmLimit, func(ev WarmEvent) { hashWarm(h, ev) }); err != nil {
				t.Fatalf("WalkWarm: %v", err)
			}
			walked, img := hex.EncodeToString(h.Sum(nil)), codeDigest(fresh.Code())
			mat, err := r.Materialise()
			if err != nil {
				t.Fatalf("Materialise: %v", err)
			}
			matInsts, matWarm, matImg := traceDigests(mat)
			if !pinned {
				t.Fatalf("no pin for %s; computed {n: %d, insts: %q, warm: %q, img: %q}",
					r, st.Pos(), streamed, walked, img)
			}
			if st.Pos() != pin.n || mat.Len() != pin.n {
				t.Fatalf("streamed %d / materialised %d insts, pinned %d", st.Pos(), mat.Len(), pin.n)
			}
			if streamed != pin.insts || matInsts != pin.insts {
				t.Fatalf("instruction digest streamed %s / materialised %s, pinned %s", streamed, matInsts, pin.insts)
			}
			if walked != pin.warm || matWarm != pin.warm {
				t.Fatalf("warm footprint digest streamed %s / materialised %s, pinned %s", walked, matWarm, pin.warm)
			}
			if img != pin.img || matImg != pin.img {
				t.Fatalf("code image digest streamed %s / materialised %s, pinned %s", img, matImg, pin.img)
			}
		})
	}
}

// TestStreamWindowWarmFootprint checks the other half of the stream's
// fidelity: a Window over the whole stream yields a trace whose
// WarmFootprint — the exact interleaving warm donors replay — agrees
// with the materialised trace's, and whose static code matches.
func TestStreamWindowWarmFootprint(t *testing.T) {
	for _, r := range streamTestRecipes(t) {
		r := r
		t.Run(r.String(), func(t *testing.T) {
			want, err := r.Materialise()
			if err != nil {
				t.Fatalf("Materialise: %v", err)
			}
			st, err := r.OpenStream()
			if err != nil {
				t.Fatalf("OpenStream: %v", err)
			}
			win, err := st.Window(int(want.Len()))
			if err != nil {
				t.Fatalf("Window: %v", err)
			}
			if win.Len() != want.Len() {
				t.Fatalf("window length %d, want %d", win.Len(), want.Len())
			}
			if (win.Code() == nil) != (want.Code() == nil) {
				t.Fatalf("window code presence %v, want %v", win.Code() != nil, want.Code() != nil)
			}
			got, wantFp := win.WarmFootprint(), want.WarmFootprint()
			if len(got) != len(wantFp) {
				t.Fatalf("footprint length %d, want %d", len(got), len(wantFp))
			}
			for i := range got {
				if got[i] != wantFp[i] {
					t.Fatalf("footprint diverges at %d: got %+v want %+v", i, got[i], wantFp[i])
				}
			}
		})
	}
}

// TestStreamOnlyLiftsCap checks the streamed validation path accepts
// synthetic sizes the materialisation cap rejects — the point of
// streaming — while still bounding runaway requests.
func TestStreamOnlyLiftsCap(t *testing.T) {
	big := Recipe{Kernel: KernelStream, N: MaxRecipeInsts + 1}
	if _, err := big.Materialise(); err == nil {
		t.Fatal("Materialise accepted N beyond MaxRecipeInsts")
	}
	if _, err := StreamOnly(big); err != nil {
		t.Fatalf("StreamOnly rejected streamable N: %v", err)
	}
	absurd := Recipe{Kernel: KernelStream, N: MaxStreamInsts + 1}
	if _, err := StreamOnly(absurd); err == nil {
		t.Fatal("StreamOnly accepted N beyond MaxStreamInsts")
	}
}
