package distsketch

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenBuildExecution pins each construction's execution across
// versions: the exact CONGEST cost (rounds, messages, words) and the
// SHA-256 of the saved v2 envelope, for every kind and for the TZ
// execution variants (asynchronous delivery, bandwidth batching, in-band
// termination detection). The
// scheduler-equivalence suite compares executions within one version and
// the envelope goldens pin hand-built sets; this test is what fails when
// a change to a node program or the engine alters a real build at all.
func TestGoldenBuildExecution(t *testing.T) {
	g, err := NewRandomWeightedGraph(FamilyGeometric, 256, 1, 100, 7)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts Options
		want Stats
		sha  string
	}{
		{"tz", Options{Kind: KindTZ, K: 3, Seed: 7},
			Stats{Rounds: 80, Messages: 233718, Words: 701154},
			"29ecc91bd2561c4e29fef66a469ee532e660e9122f5702781f2de07f1d5dfd1e"},
		{"tz-async", Options{Kind: KindTZ, K: 3, Seed: 7, MaxDelay: 3},
			Stats{Rounds: 113, Messages: 305751, Words: 917253},
			"2a985b4332b13fc55612b61891516f49f4d4510549c50e05c7a73ca9009ccb4b"},
		{"tz-batch", Options{Kind: KindTZ, K: 3, Seed: 7, BandwidthBatch: 4},
			Stats{Rounds: 37, Messages: 113064, Words: 647818},
			"75977407d7e04ec8483fdfc5f2fb39375b9d25aebea861b70262e53387da4f45"},
		{"tz-detection", Options{Kind: KindTZ, K: 3, Seed: 7, Detection: true},
			Stats{Rounds: 208, Messages: 473410, Words: 1385668},
			"50d4c9a8593fcd41ec2fadeb7ee05fff1f199365a7f76fa8752b0cc06914bce9"},
		{"tz-detection-async", Options{Kind: KindTZ, K: 3, Seed: 7, Detection: true, MaxDelay: 3},
			Stats{Rounds: 301, Messages: 564746, Words: 1659676},
			"40131107531699cff95ee3f4dd0573d0627c790fdfa156e5b270277aa2e1b104"},
		{"cdg", Options{Kind: KindCDG, K: 3, Seed: 7},
			Stats{Rounds: 108, Messages: 162319, Words: 479425},
			"f22f3f400f0cb3416503f2d1ae4289b25a782fb23aedbd1125afee6044505f58"},
		{"graceful", Options{Kind: KindGraceful, K: 3, Seed: 7},
			Stats{Rounds: 1037, Messages: 2697460, Words: 8058598},
			"0152d26918b3166048a3b58c7ea5543195337ec3085fecab9a15e5b9c8148725"},
		{"landmark", Options{Kind: KindLandmark, Eps: 0.5, Seed: 7},
			Stats{Rounds: 202, Messages: 1172801, Words: 3518403},
			"12bff9566666408f595e99a324884d0df18993296c3f80882c521c2f1e12daf9"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set, err := Build(g, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if _, err := set.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := set.Cost().Total
			if got != c.want {
				t.Errorf("cost = %+v, want %+v", got, c.want)
			}
			if h := hex.EncodeToString(sum[:]); h != c.sha {
				t.Errorf("v2 envelope sha256 = %s, want %s", h, c.sha)
			}
		})
	}
}
