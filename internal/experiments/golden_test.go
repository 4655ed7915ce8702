//go:build amd64 && !amd64.v3

package experiments

import (
	"context"
	"testing"

	"anchor/internal/embedding"
)

// trainingGolden pins SHA-256 digests (embeddingDigest) of the four
// trainers at d8, seed 1, SmallConfig: the unaligned snapshots TrainCtx
// serves and the aligned Wiki'18 half of PairCtx's pair. Trained bits are
// a pure function of (corpus, algorithm, dim, seed) for every worker
// count and schedule, so a change to any of these values changes what the
// paper's measures are computed on and must update its digest here.
//
// The values are those of amd64 builds below GOAMD64=v3 (the default):
// from v3 up the compiler fuses multiply-adds, which round differently, as
// on arm64 and other targets; the build constraint keeps the test to the
// builds it pins.
var trainingGolden = map[string]string{
	"mc/wiki17":     "63f523119ce86165bf2d8c63f3e3f4dada6b8920dcec18358312c0c7f274a89c",
	"mc/wiki18":     "d7f0e6827c80f47342bc158eba498bd05d8f475c249ae79c72fc0f89b25af886",
	"mc/wiki18a":    "3661616e03de446569fad931adcc559670f4bb2d61cd1552771e52e00ddece59",
	"glove/wiki17":  "0810ea977e08d48cfee854f7e08fc23449a075d993825d1c9609360faef0926b",
	"glove/wiki18":  "03af440e0f28e56b78ffea9f5ea5e26001684fed3f43122cda963bf4e7481fae",
	"glove/wiki18a": "cc2558af87242a02d3da597ede6dfee3145898d2b3323c35a250777717ebd27f",

	"cbow/wiki17":      "4fa72b0d18c9ff51a17b8400496daaa96fe6c4710d317b82d5622697aa1eaadb",
	"cbow/wiki18":      "756edb695fbe2baaf0abffd5fa7a23396894afc64956ebf64a336e17b5557bc7",
	"cbow/wiki18a":     "b790001b429743d616f803a6a21bc433eb2eba6d466cd1b0e470c0a345da2fa0",
	"fasttext/wiki17":  "d34bf71310e0649e498b83ba83da3bb11c9b88599f3dc294db0c709c39a7cbd2",
	"fasttext/wiki18":  "0f0b652bd06772a827bcfb6a289aaf09a3614a1b02cd76618ec580d4bbd655bb",
	"fasttext/wiki18a": "f2026ba37ac00203e64689cd5dad982d0f02eefd0c3f9baab7ab57caf4a0b41c",
}

func TestTrainingGoldenDigests(t *testing.T) {
	ctx := context.Background()
	r := NewRunner(SmallConfig())
	check := func(key string, e *embedding.Embedding) {
		t.Helper()
		if got := embeddingDigest(e); got != trainingGolden[key] {
			t.Errorf("%s: digest %s, pinned %s", key, got, trainingGolden[key])
		}
	}
	for _, algo := range []string{"mc", "glove", "cbow", "fasttext"} {
		e17, e18a, err := r.PairCtx(ctx, algo, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(algo+"/wiki17", e17)
		check(algo+"/wiki18a", e18a)
		for i, tag := range []string{"wiki17", "wiki18"} {
			e, err := r.TrainCtx(ctx, algo, 2017+i, 8, 1)
			if err != nil {
				t.Fatal(err)
			}
			check(algo+"/"+tag, e)
		}
	}
}
