package chunk

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
)

// Chunk boundaries are a persistent format: they decide what a stream
// dedups against in every store already written and between clients
// and servers of different builds. Every other chunking test here is
// differential (Split == Stream == Parallel == reference), so a change
// that moves all of them together passes; these vectors are what it
// cannot move. They were written by the build that introduced this
// file — one in which Rabin's Split was the reference chunker's and
// each engine had a stream of its own — and must never be regenerated
// to make a change pass: a mismatch means the change breaks dedup
// against existing data.
//
// The layout follows restic's chunker_test.go: a fixed spec, input from
// a constant-seeded generator written out below (so the table depends
// on nothing outside this file), the leading chunks as {Length,
// Fingerprint, SHA-256}, and — because 16 chunks pin only the first
// hundred kilobytes — the chunk count and one SHA-256 over the whole
// (length, fingerprint) sequence.

// goldenRandom returns n bytes (a multiple of 8) of splitmix64 output.
func goldenRandom(n int) []byte {
	out := make([]byte, n)
	x := uint64(0x5348524544444552) // "SHREDDER"
	for i := 0; i < n; i += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		binary.LittleEndian.PutUint64(out[i:], z^(z>>31))
	}
	return out
}

// goldenServiceSpec restates ingest.DefaultConfig()'s chunking — what a
// session that never negotiates is cut with — as a literal, so that a
// change to the service default shows up here as a conscious edit.
func goldenServiceSpec() Spec {
	return Spec{
		Algo:       AlgoRabin,
		Window:     48,
		Polynomial: 0x3DA3358B4DC173,
		MaskBits:   12,
		Marker:     1<<12 - 1,
		MinSize:    2 << 10,
		MaxSize:    32 << 10,
	}
}

type goldenChunk struct {
	Length      int64
	Fingerprint uint64
	SHA256      string
}

type goldenTable struct {
	spec, input string // keys into TestGoldenBoundaries' specs and inputs

	first  []goldenChunk // the leading chunks, at most 16
	count  int
	seqSum string // SHA-256 over every chunk's (length, fingerprint), big-endian uint64s
}

const (
	goldenRandomLen = 8 << 20
	// goldenZerosLen is a multiple of every bounded spec's MinSize and
	// MaxSize: restic's second case, where a forced cut lands exactly on
	// the end of the input.
	goldenZerosLen = 128 << 10
)

// checkGolden holds chunks, one path's cut of data, to the table.
func checkGolden(t *testing.T, path string, want goldenTable, data []byte, chunks []Chunk) {
	t.Helper()
	seq := sha256.New()
	var off int64
	for i, c := range chunks {
		if c.Offset != off || c.Length <= 0 {
			t.Fatalf("%s: chunk %d is %+v, want a non-empty chunk at offset %d", path, i, c, off)
		}
		off = c.End()
		var rec [16]byte
		binary.BigEndian.PutUint64(rec[:8], uint64(c.Length))
		binary.BigEndian.PutUint64(rec[8:], c.Fingerprint)
		seq.Write(rec[:])
		if i >= len(want.first) {
			continue
		}
		sum := sha256.Sum256(data[c.Offset:c.End()])
		got := goldenChunk{c.Length, c.Fingerprint, hex.EncodeToString(sum[:])}
		if got != want.first[i] {
			t.Fatalf("%s: chunk %d is {%d, %#016x, %s}, the golden table has {%d, %#016x, %s}", path, i,
				got.Length, got.Fingerprint, got.SHA256, want.first[i].Length, want.first[i].Fingerprint, want.first[i].SHA256)
		}
	}
	if off != int64(len(data)) {
		t.Fatalf("%s: chunks cover %d bytes of %d", path, off, len(data))
	}
	if len(chunks) != want.count {
		t.Fatalf("%s: %d chunks, the golden table has %d", path, len(chunks), want.count)
	}
	if got := hex.EncodeToString(seq.Sum(nil)); got != want.seqSum {
		t.Fatalf("%s: (length, fingerprint) sequence hashes to %s, the golden table has %s", path, got, want.seqSum)
	}
}

// streamChunks cuts data through e.Stream in writes of the given size.
func streamChunks(t *testing.T, e Engine, data []byte, write int) []Chunk {
	t.Helper()
	var out []Chunk
	s := e.Stream(func(c Chunk, _ []byte) error {
		out = append(out, c)
		return nil
	})
	for off := 0; off < len(data); off += write {
		if _, err := s.Write(data[off:min(off+write, len(data))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenBoundaries: every path that cuts a stream reproduces the
// checked-in tables.
func TestGoldenBoundaries(t *testing.T) {
	inputs := map[string][]byte{
		"random": goldenRandom(goldenRandomLen),
		"zeros":  make([]byte, goldenZerosLen),
	}
	specs := map[string]Spec{
		"rabin-default": DefaultSpec(),
		"rabin-service": goldenServiceSpec(),
		"fastcdc-4k":    FastCDCSpec(4 << 10),
	}
	for _, want := range goldenTables {
		t.Run(want.spec+"/"+want.input, func(t *testing.T) {
			data := inputs[want.input]
			e, err := New(specs[want.spec])
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "Split", want, data, e.Split(data))
			for _, write := range []int{1, 4099, 64 << 10} {
				checkGolden(t, fmt.Sprintf("Stream/%d-byte writes", write), want, data, streamChunks(t, e, data, write))
			}
			for _, workers := range []int{2, 8} {
				p := NewParallel(e, workers)
				checkGolden(t, fmt.Sprintf("Parallel-%d/Split", workers), want, data, p.Split(data))
				checkGolden(t, fmt.Sprintf("Parallel-%d/Stream", workers), want, data, streamChunks(t, p, data, 64<<10))
				checkGolden(t, fmt.Sprintf("Parallel-%d/Scanner/1 MiB segments", workers), want, data, scanSteps(t, p, data, []int{1 << 20}))
			}
			// In place, a segment at a time: the smallest the ingest
			// pipeline could use (one chunk), its own size and around it.
			for _, seg := range []int{e.Spec().MaxSize, 1 << 20, 4 << 20, len(data)} {
				if seg == 0 {
					continue // a spec without a MaxSize
				}
				checkGolden(t, fmt.Sprintf("Scanner/%d-byte segments", seg), want, data, scanSteps(t, e, data, []int{seg}))
			}
		})
	}
}

var goldenTables = []goldenTable{
	{
		spec: "rabin-default", input: "random",
		first: []goldenChunk{
			{9635, 0x0011f19812381fff, "d585b01e5ef648d3fb774c6a772d44b869c3af0f7afadaf54423dcdcae20cbb5"},
			{16687, 0x000a5b357ddb3fff, "20b54cd27702fb0518eae9f6cba124de6e172a698391151234f13e2acd0a68da"},
			{6650, 0x0019802551857fff, "7953444ca5e94d7b7b9a3be39d448cabc958bb25946f4a20e3a2ccae2407b9fd"},
			{2604, 0x0004474a18781fff, "8078c21042865d2c984e655d99f87922c1aa46be70b27c3b79c7a701bfb1ffdd"},
			{20028, 0x000830222731dfff, "b9b321f9ffa377e293aee47eb62521688ebda39f9a1f91ea108c1218f08db6a8"},
			{419, 0x001e16a154779fff, "32b4389b4df0646625cde77c89cd32f2b62294d382f451d8f1e6029b8e20aff9"},
			{15981, 0x0011568b6f53dfff, "6f3023cff061d4cbf2d697187ed7c53457fb87e507cdcc480224f0e0f651e5aa"},
			{11829, 0x0015543bd739bfff, "e2f5dc70cbf22e003a8d3069df7e61d2ef7dcee87a43033f008fb5a67602fe94"},
			{9720, 0x000b187409bc7fff, "1ae94e6e6b3a28ec5da55fce11a07cc7770af381e97d862cc260f2542e3dfe6d"},
			{10364, 0x00113652dd567fff, "5fa6638f61426cfd9c958e50134f4861aea1cf61dea034c2aa1e3dceac67abc5"},
			{3611, 0x0000eee8d2d67fff, "a326e25db20cb39926bb02ecf5d1ea81b18d43732341b36df9ca10e74779245a"},
			{2282, 0x0006739baf697fff, "4d02ad8592e51d535821c12aa577eb529e3dad28aa6c9f233af0ed0c6cf23265"},
			{17, 0x0001b0779a867fff, "603cf212965c0089c307282f2d9dc09585001db7869a8420a395dbf14991bd0f"},
			{6799, 0x0009ab67c9ef5fff, "3a735c58a95064ab809ae7664015a9269c8b89007bd6efb0e7a8f36d09fb40c5"},
			{13790, 0x000bb847bb1fbfff, "0f99473a7e2b4605ae9ac004da74b4cdbf4d1b84dabcc5b044cec364ca0773d6"},
			{33139, 0x00114015f6829fff, "5b793e53186af9788d28d9bfe536e795f2324e05ba55a55851592477dc5996b4"},
		},
		count:  999,
		seqSum: "d49731538a3fce240eaec4c5947fbb2516f60ac0b9307039a4f46cbe81ba08f4",
	},
	{
		spec: "rabin-default", input: "zeros",
		first: []goldenChunk{
			{131072, 0x0000000000000000, "fa43239bcee7b97ca62f007cc68487560a39e19f74f3dde7486db3f98df8e471"},
		},
		count:  1,
		seqSum: "ae089d8152636c24b7a4fcc0e85e74a2cbb256a036fcb4a13c58dd538d6df581",
	},
	{
		spec: "rabin-service", input: "random",
		first: []goldenChunk{
			{8596, 0x0015e76507838fff, "64028095b9cbd5dd526d786e513fc18f143fdb65bbfb7bbd5393dd8acba2e9dc"},
			{5880, 0x000b05cd1fbe4fff, "ca87e79401794c28849dff0756d61f97a8032e4556f18f29712247e781a6cf03"},
			{11846, 0x000a5b357ddb3fff, "c4488e2287fa3f4f8f85371d06912496c4e7034ce905cd477d3f81eb94a906b7"},
			{6650, 0x0019802551857fff, "7953444ca5e94d7b7b9a3be39d448cabc958bb25946f4a20e3a2ccae2407b9fd"},
			{2604, 0x0004474a18781fff, "8078c21042865d2c984e655d99f87922c1aa46be70b27c3b79c7a701bfb1ffdd"},
			{7488, 0x000eec073f658fff, "556a6f38153b4e434ba3ac8f54c6830bb1eba944b23bd00a1e54229bbff4e379"},
			{5889, 0x00151754ff4b8fff, "62363cf7eca1790f958b05b743b956012b1d01e985a7a97e81d16337782f5f25"},
			{4503, 0x0011d6d47381efff, "101d0602e4b3171b5034dd613763059edb1e35c57f70acf49c2e1ee51d70174d"},
			{2148, 0x000830222731dfff, "9da5917acd2f728ed8b4f744c22d4e4358b7e5fa03d7c143fc79b1811b63c9e3"},
			{16400, 0x0011568b6f53dfff, "83190db6574c9aafffb71bb53ef51889433088acab965c03149cc8ab4555641d"},
			{11829, 0x0015543bd739bfff, "e2f5dc70cbf22e003a8d3069df7e61d2ef7dcee87a43033f008fb5a67602fe94"},
			{5684, 0x00181ea203232fff, "26d73ba547284b64d3b631311484037b5c9253d8d31056eab91a8a1f8b2b6e14"},
			{4036, 0x000b187409bc7fff, "2d3b1028b7ec171fc0f09dbd8b9917002825eb4528722dfa2521139710f8ceb9"},
			{8207, 0x000bdeba64194fff, "ccff8f4e04591f61fcedcefef171b76a33c0dee4a0b05a198e9179b13d87cef5"},
			{2157, 0x00113652dd567fff, "c0fb8f43d9b8aa17d2f129875fb537ad2e30f278986346531d0b040ccb7cfc3d"},
			{3611, 0x0000eee8d2d67fff, "a326e25db20cb39926bb02ecf5d1ea81b18d43732341b36df9ca10e74779245a"},
		},
		count:  1344,
		seqSum: "d41f910b6b6f78f2eae40650e62b22261cfaf6f5ae7d96ec0328caac26cacedc",
	},
	{
		spec: "rabin-service", input: "zeros",
		first: []goldenChunk{
			{32768, 0x0000000000000000, "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479"},
			{32768, 0x0000000000000000, "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479"},
			{32768, 0x0000000000000000, "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479"},
			{32768, 0x0000000000000000, "c35020473aed1b4642cd726cad727b63fff2824ad68cedd7ffb73c7cbd890479"},
		},
		count:  4,
		seqSum: "c11b3db6d4879945b06846a9df944f3edf088274fd02b6a571d461e395a19f5b",
	},
	{
		spec: "fastcdc-4k", input: "random",
		first: []goldenChunk{
			{4100, 0x0004a97abb06ffe5, "fe1796975c8ca9ad6b3dd232dd25d9483109c6140015b0c99c34252216e5fa28"},
			{4665, 0x00195cacb5a0edac, "367ce7e01eed7ec2bab2f35435675098d11cff6996a2169dd89015b22ec87603"},
			{4371, 0x0032d27aeba7b30d, "040b5b74c49c95a48bc74b94f831e40a5bfc0c4285d81a36b575ee17be2aaa39"},
			{4954, 0x001d662555c0f39e, "272c6773135abe79064fe46cc0039f8f94295c157ab2480c4e3ce337ffcedf22"},
			{5525, 0x000519621b3d56e4, "b4aa04823ee39c02e34bbe2809131f3b48204376b7f69fb20389bf5f87435046"},
			{4419, 0x001342b6014f9e46, "82e0a5ce22cd4ee68b081b34ad901c8592c7a6a5471ebcb2ad498bdc4be4f21c"},
			{5250, 0x001253e24cd03577, "7e2ee8ace032aee7ae490ef5154f479804b17cfe2e15856053844eb9558a028c"},
			{5376, 0x0013b69501694d84, "dbf55d7c9d2846130a00675618cfcc6fb2ef32ed975984df8fe97714f903159c"},
			{4139, 0x002369069d6ac74c, "7163c04afab6c71750ea05aebcffd3531c2f31b892753e283f93af5746e1aeac"},
			{6213, 0x000ad847e4c751c2, "04f3b5d28ef981c124b810c5d9d11870c18db410c1a65aed95b8591c013cf704"},
			{6067, 0x00181f8f06b06881, "8a4bb892b4a347159d3a3f81128878d57ee53507d28afae01af371d0aa472d15"},
			{5213, 0x000664a99001d203, "322da810766bacdd983f216480e0d0808314d92152c61e5c6ee451d40dbb57df"},
			{4592, 0x001c236a3e1d1ff3, "cd3f93137be916394ca3630b9c6408eec0810032bd5fce5c939947222ff170ae"},
			{4556, 0x0017f4ae377a474d, "c75521c9b3350bf9a8fa0bfdd27e0a1564e56e5801a39456c49787911a75f1e4"},
			{4633, 0x002655674f234995, "7ad4be2b1b9d801925995fac33352cc2134305266d6e99867a2ee40b74f89d70"},
			{4184, 0x00007efd1cae4a4e, "133ab3f15b3eb1c0a6e6bea89cdd19536797f4956c50ca8e1ab9d83c4dab7e5a"},
		},
		count:  1793,
		seqSum: "8e7b2f14aeabe0d466f3f12fb2ab92543cb630d74ed3b85641c1be9128f9bc16",
	},
	{
		spec: "fastcdc-4k", input: "zeros",
		first: []goldenChunk{
			{16384, 0x0000000000000000, "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"},
			{16384, 0x0000000000000000, "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"},
			{16384, 0x0000000000000000, "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"},
			{16384, 0x0000000000000000, "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"},
			{16384, 0x0000000000000000, "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"},
			{16384, 0x0000000000000000, "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"},
			{16384, 0x0000000000000000, "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"},
			{16384, 0x0000000000000000, "4fe7b59af6de3b665b67788cc2f99892ab827efae3a467342b3bb4e3bc8e5bfe"},
		},
		count:  8,
		seqSum: "74cb39bde805112871bc343c9ea75e49c6a8454c51e1d923a22937ca99c3a140",
	},
}
