//go:build amd64 && !amd64.v3

package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"testing"
)

// paperGolden pins a SHA-256 digest (tablesDigest) of every registered
// paper artifact at SmallConfig. Each artifact's rows are a pure function
// of the config for every worker count, so a change that moves any value
// the paper reproduction reports, down to its printed precision, changes
// a digest here. Re-pin only in a change that says why the numbers move.
// The build constraint is trainingGolden's (golden_test.go): from
// GOAMD64=v3 up the compiler fuses multiply-adds, which round
// differently.
var paperGolden = map[string]string{
	"fig1":    "b9bce70a6016f21df60444248bc451432657e2626e4c4e5855f9c1d99eaee553",
	"fig2":    "3f2ceb0cf0aed04e48d80ba3559c2c2e633510ba9bf9950aa34a559d0a664838",
	"fig3":    "f68c9803cec3e16dd321eaa56adc040ca5bb045fa7d83a4fffa948ff6d3a0784",
	"fig4":    "fdf1192557da3f4f4b9f86aa595fd44d0cf4bb5629ce52d63e78c07ad117a18a",
	"fig5":    "542e12e640d8026c0f6443debeda56788a15f08cb49b7210905a476b6a726b7b",
	"fig6":    "1658b2513d746cbdaedad7b45503477e21a1ce245b98e307df76a61e711f2ddb",
	"fig7":    "145a9368275ddede1bf0714271102730c787c301a254a13902a3a2a92adfe2ae",
	"fig8":    "8d50f68726c49de80a17adcdeec9fc5508ac056828ff4686e1f2eb6bf3a9205a",
	"fig9":    "caacb1979af1fd0a9156efbf0e7045211419a95cf233a78020af41969c74f4bf",
	"fig10":   "685850fbb10b1a04563929b0ec2aaabcf3951e9e0c9db958d4d2b7f6efca1216",
	"fig11":   "64e167238e86ea60a7bea390fcd54ea66b5266ef26d997cec2167c6e4d9c2898",
	"fig12":   "e1253ca918e1f565e365830a1f3f5b6783dfbe1eb8fc10218c5500a4cf768e46",
	"fig13":   "156fcbdcc7d0ba6d0c42df9827f7061d10794ad25e1d4bd3ea355a08ada324f9",
	"fig14":   "cb876a6a5413073be533433a392333158efbf21199bd6d5e89e6cdb6b1ca5260",
	"fig15":   "40808310c309d7db0f8d6618aec9a89e6917ad1517432a0eaefbf02d8e28b631",
	"prop1":   "11f346762a969caea54a7f5599d752a34803545bae410a6ee20e83e0c6508afc",
	"rule":    "47336bac91532961832fd2c2d86102dd139a1f1feae6b37d532614e15920638b",
	"table1":  "845188885cd1db4ff664a8f0811eb3b37092755e1d079c0508b653af106466b9",
	"table2":  "b5e387e82bc1e3a571fcddc28af41f553eafa677ba98f82d617f1a4cb23be506",
	"table3":  "24802c53bbc51771a6b0fa8d6166b1a90e7dbb5b18169ff4daccb82c5d1a0fbd",
	"table8":  "961cbf40a31cdf0df34d9325b43cef3fab3dd0eb936b682609d35e459931f543",
	"table9":  "b49d7c7ea67c602efa538f0be5f8fcb4c9466b99765988cf2cf5ae65681b16d7",
	"table10": "a27876438738183a13be413596ff6100cd5979f6e005971d70c77842a1a542c8",
	"table11": "24802c53bbc51771a6b0fa8d6166b1a90e7dbb5b18169ff4daccb82c5d1a0fbd",
	"table13": "9af420249ecbda963997730730cf68c1fe448843cf9401dfad47fc93c8f429ec",
}

// tablesDigest hashes the RenderCSV output of an artifact's tables, in
// order.
func tablesDigest(t *testing.T, tables []*Table) string {
	t.Helper()
	h := sha256.New()
	for _, tb := range tables {
		if err := tb.RenderCSV(h); err != nil {
			t.Fatal(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestPaperArtifactDigests(t *testing.T) {
	reg := Registry()
	if len(reg) != len(paperGolden) {
		t.Fatalf("registry has %d artifacts, %d pinned", len(reg), len(paperGolden))
	}
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		t.Run(id, func(t *testing.T) {
			want, ok := paperGolden[id]
			if !ok {
				t.Fatalf("artifact %s has no pinned digest", id)
			}
			if got := tablesDigest(t, runAndCheck(t, id)); got != want {
				t.Errorf("%s: digest %s, pinned %s", id, got, want)
			}
		})
	}
}
