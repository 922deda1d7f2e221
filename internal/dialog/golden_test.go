package dialog_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"vids/internal/dialog"
	"vids/internal/trace"
)

// jsonlSum is the sha256 of entries written as a `vids -replay` JSONL
// trace: the exact bytes any consumer of the trace would see.
func jsonlSum(t *testing.T, traces ...[]trace.Entry) string {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, entries := range traces {
		for _, e := range entries {
			if err := w.Record(e.Packet(), e.At()); err != nil {
				t.Fatal(err)
			}
		}
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// checkGoldens compares every computed digest with its pinned value and
// prints the full table on any mismatch, ready to paste.
func checkGoldens(t *testing.T, want, got map[string]string) {
	t.Helper()
	bad := false
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: sha256 %s, pinned %q", name, sum, want[name])
			bad = true
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: pinned but not computed", name)
			bad = true
		}
	}
	if bad {
		var b bytes.Buffer
		for name, sum := range got {
			fmt.Fprintf(&b, "\t%q: %q,\n", name, sum)
		}
		t.Logf("computed:\n%s", b.String())
	}
}

// TestSynthesizeGolden pins the rendered bytes of every Synthesize
// configuration the repository uses — tests, benchmarks and the E10/E12
// experiment sizes — so a change to how calls are scripted shows up as
// a digest change instead of as a silent shift in what the parity
// suites and benchmarks feed the detector.
func TestSynthesizeGolden(t *testing.T) {
	got := map[string]string{}
	for _, cfg := range []dialog.SynthConfig{
		{Calls: 40, RTPPerCall: 10, Attacks: true},
		{Calls: 30, RTPPerCall: 4, Attacks: true},
		{Calls: 20, RTPPerCall: 10, Attacks: true},
		{Calls: 12, RTPPerCall: 8},
		{Calls: 12, RTPPerCall: 6, Attacks: true},
		{Calls: 10, RTPPerCall: 5, Attacks: true},
		{Calls: 4, RTPPerCall: 4, Attacks: true},
		{Calls: 4, RTPPerCall: 3},
		{Calls: 4, RTPPerCall: 40},
		{Calls: 3, RTPPerCall: 3},
		{Calls: 3, RTPPerCall: 4},
		{Calls: 2, RTPPerCall: 2},
		{Calls: 8, RTPPerCall: 4, Attacks: true},
		{Calls: 900, RTPPerCall: 4, Attacks: true},
		{Calls: 1500, RTPPerCall: 4, Attacks: true},
		{Calls: 4, RTPPerCall: 4, FirstCall: 999, Attacks: true},
	} {
		got[fmt.Sprintf("%+v", cfg)] = jsonlSum(t, dialog.Synthesize(cfg))
	}
	// The FirstCall-partitioned traces the concurrent producers and the
	// throughput benchmarks feed, one digest per partitioning.
	for _, p := range []struct {
		total, rtp int
		lanes      []int
	}{
		{96, 8, []int{4}},
		{192, 40, []int{1, 2, 4, 8, 16}},
		{96, 30, []int{1, 4}},
	} {
		for _, lanes := range p.lanes {
			var parts [][]trace.Entry
			for i := 0; i < lanes; i++ {
				parts = append(parts, dialog.Synthesize(dialog.SynthConfig{
					Calls: p.total / lanes, RTPPerCall: p.rtp, FirstCall: i * (p.total / lanes),
				}))
			}
			got[fmt.Sprintf("calls=%d rtp=%d lanes=%d", p.total, p.rtp, lanes)] = jsonlSum(t, parts...)
		}
	}
	checkGoldens(t, synthGoldens, got)
}

var synthGoldens = map[string]string{
	"calls=192 rtp=40 lanes=1":  "8453eb6a4b3e7c1d95aef7cade8a44997030c2f1c4d67476a56bbd2ce3565af7",
	"calls=192 rtp=40 lanes=16": "3500fc548d3db1b08334204d9ed8a5d60a03123abb47f2571b777824141a6ace",
	"calls=192 rtp=40 lanes=2":  "5a2cef8c4dcb67ac892dc52c7ada6ab5b22ccd483505857d77bcc015e29b3deb",
	"calls=192 rtp=40 lanes=4":  "b616883958c9280c7cc0f2969b31bba8408db1c6e3b904c7dc19917acd931bb0",
	"calls=192 rtp=40 lanes=8":  "c1e2bf082fa0813bc81127fa2ed6495c82713a894e69c6006cb9538a69c11b94",
	"calls=96 rtp=30 lanes=1":   "9d93f122aa944ca6f1d23f2448308e3f8e933b52ce409d67985a81722b11163a",
	"calls=96 rtp=30 lanes=4":   "5f7e446450382d963b4f9701aadfcef822db69af4ea98c618d38259d937065e6",
	"calls=96 rtp=8 lanes=4":    "2ed133682c2ae5ea6a0ffb5c9ba650ee2414629bc315a9c13d7983a12b771fd4",

	"{Calls:10 RTPPerCall:5 FirstCall:0 Attacks:true}":   "c9f99fae0fb01dcc2693c5347b551fa4c2511b025894127605b590107d748491",
	"{Calls:12 RTPPerCall:6 FirstCall:0 Attacks:true}":   "d7ceb1bf588690b09c44cfcd6ba6966f5e7c31653dd42a3f48a459c65f4b867c",
	"{Calls:12 RTPPerCall:8 FirstCall:0 Attacks:false}":  "b8af0e427542c9287b5283a621fb20741610a25a57393e03af6d0573ff7133cb",
	"{Calls:1500 RTPPerCall:4 FirstCall:0 Attacks:true}": "2dc9ac36116427872f2d771ae7675be8bb2878234af47831afc177681290b2f7",
	"{Calls:2 RTPPerCall:2 FirstCall:0 Attacks:false}":   "390400b2fe61b470b6fc7c1c021b6fa6c2b56347160499075fea4a3b2da9bf10",
	"{Calls:20 RTPPerCall:10 FirstCall:0 Attacks:true}":  "56482b9c22c5145dda79f06055a0a0c7f86b4f0f179ddbf5f6cdab33978c5bcf",
	"{Calls:3 RTPPerCall:3 FirstCall:0 Attacks:false}":   "44283f07d02e8bf0333f72c972c4a4a03c75da98b785aafe862c989b6da4b092",
	"{Calls:3 RTPPerCall:4 FirstCall:0 Attacks:false}":   "ebd4df0d48f8ce72afcaaed4b74213edb1cc3af80633324c2bd3a70b291f1e51",
	"{Calls:30 RTPPerCall:4 FirstCall:0 Attacks:true}":   "17fa732142397f83653538efc01966b4bd128435f8bd1a8da697b6b816e4063e",
	"{Calls:4 RTPPerCall:3 FirstCall:0 Attacks:false}":   "18ee51179b42c7f81a853eb9546463ef06cbdeb1e55f3f33f9350910f15f5ce1",
	"{Calls:4 RTPPerCall:4 FirstCall:0 Attacks:true}":    "f3cd49d73e0b8834fbfe640555dd00a5a7549c01a7080f04c09eb7d91e9a6be7",
	"{Calls:4 RTPPerCall:4 FirstCall:999 Attacks:true}":  "062da58f5e00196e3fef6966154d439807220cf38b494ab2cf81c8cb6fb4a522",
	"{Calls:4 RTPPerCall:40 FirstCall:0 Attacks:false}":  "35a48908363c5e8ef096be3d8177c1864abc92db5d89766a8dff7a8e1722e5b4",
	"{Calls:40 RTPPerCall:10 FirstCall:0 Attacks:true}":  "ac4028750081cc4a1fab9a20e9e25c4791f0a2ef480dba8da89f031370054927",
	"{Calls:8 RTPPerCall:4 FirstCall:0 Attacks:true}":    "945aa48d517ca94ef81b2788f641f53efab07429c23dfc91fcdcfb428f53d31c",
	"{Calls:900 RTPPerCall:4 FirstCall:0 Attacks:true}":  "84458a1993e60f1f90a04178533fd5ac833c217b04a4bb98f63eec78c9922cab",
}
