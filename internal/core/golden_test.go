package core

import (
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"repro/internal/arch"
	"repro/internal/circuit"
	"repro/internal/nisqbench"
)

// goldenPairs are the three Table II pairs the IBMQ16 golden rows cover:
// a tiny pair, a mixed pair and the largest small pair.
var goldenPairs = [][2]string{
	{"bv_n3", "bv_n3"},
	{"bv_n3", "fredkin_3"},
	{"3_17_13", "alu-v0_27"},
}

// goldenMixes are the twelve Table III mixes (experiments.go holds the
// same list; core cannot import the root package).
var goldenMixes = [][]string{
	{"aj-e11_165", "alu-v2_31", "4gt4-v0_72", "sf_276"},
	{"alu-bdd_288", "ex2_227", "ham7_104", "C17_204"},
	{"bv_n10", "ising_model_10", "qft_10", "sys6-v0_111"},
	{"aj-e11_165", "alu-v2_31", "ising_model_10", "cnt3-5_180"},
	{"4gt4-v0_72", "sf_276", "sym9_146", "rd53_311"},
	{"alu-bdd_288", "ex2_227", "qft_10", "sys6-v0_111"},
	{"ham7_104", "C17_204", "bv_n10", "ising_model_10"},
	{"aj-e11_165", "4gt4-v0_72", "rd53_311", "cnt3-5_180"},
	{"alu-v2_31", "sf_276", "sym9_146", "qft_16"},
	{"alu-bdd_288", "ham7_104", "ising_model_10", "sys6-v0_111"},
	{"ex2_227", "C17_204", "bv_n10", "qft_10"},
	{"aj-e11_165", "sf_276", "C17_204", "sys6-v0_111"},
}

// goldenShortMixes are the mixes `-short` keeps (0-based).
var goldenShortMixes = map[int]bool{2: true, 6: true, 9: true}

// routeGolden is the recorded sha256 of every attempt's schedules for
// one workload: Ops, FinalMapping and the SWAP/bridge counters of each
// seed 1..5, in seed order. The literals were generated on the tree
// before the incremental routing state landed and must never be edited
// to make a router change pass: a differing hash means some schedule
// moved by at least one op.
var routeGolden = map[string]string{
	"ibmq16/Separate/bv_n3+bv_n3":                 "05bfc97e830a5a887366fa64dabde08b03320e85053e23282d5e697d275b9201",
	"ibmq16/Separate/bv_n3+fredkin_3":             "cfefd839cb94bcf181cb900583a8c7708a7369a835ce3155cbddde8d36eec5e4",
	"ibmq16/Separate/3_17_13+alu-v0_27":           "8f7d7c8e56af82af0d414eb2185a80fde747e96b6aa93dcbcbecf9ce28f4c730",
	"ibmq16/SABRE/bv_n3+bv_n3":                    "9b0ad1a5b0762672f63b59c4939269f296fd99a269b21aebf260d5ba3ececdd0",
	"ibmq16/SABRE/bv_n3+fredkin_3":                "6d23b20c4ea3dd8b019a355c75ef4197ed9890c4b5c73bb5aa4b4d0cfc274dad",
	"ibmq16/SABRE/3_17_13+alu-v0_27":              "3b5ff2223b94ef23678669592b218ee32e5226d880d8319202fd60f427a1f849",
	"ibmq16/Baseline/bv_n3+bv_n3":                 "ab809f3dd6d3c49cb34fd76572342ed8daa3cfb0a9d56f88f37e2555cc8eb363",
	"ibmq16/Baseline/bv_n3+fredkin_3":             "da18c840894e421e430fb41ed1c567ba953c8e2dd3e07b3e91e48e2aa08921e0",
	"ibmq16/Baseline/3_17_13+alu-v0_27":           "1dc4425f6baf0e4489a840e6be1a69dd96cf7212a5e0fbf853001029e2adb01b",
	"ibmq16/CDAP+X-SWAP/bv_n3+bv_n3":              "769fe6a3be15eaa8b5bbd5dfdbce93f243efc01cf705bc8aa37322781c6c0829",
	"ibmq16/CDAP+X-SWAP/bv_n3+fredkin_3":          "ea51857c12c7744bac7d9426021249a602f80a668462dc14d3c8cfed5aa8b38b",
	"ibmq16/CDAP+X-SWAP/3_17_13+alu-v0_27":        "6efa66200d01608792978508fb5acc4aef8f3220681782fdfe8ceab7f9fb7958",
	"ibmq16/CDAP-only/bv_n3+bv_n3":                "769fe6a3be15eaa8b5bbd5dfdbce93f243efc01cf705bc8aa37322781c6c0829",
	"ibmq16/CDAP-only/bv_n3+fredkin_3":            "ea51857c12c7744bac7d9426021249a602f80a668462dc14d3c8cfed5aa8b38b",
	"ibmq16/CDAP-only/3_17_13+alu-v0_27":          "6efa66200d01608792978508fb5acc4aef8f3220681782fdfe8ceab7f9fb7958",
	"ibmq16/X-SWAP-only/bv_n3+bv_n3":              "0fea3807abc5e62ec42b7d6d2f4fd3b10daa915669cbca72390601a083711e7f",
	"ibmq16/X-SWAP-only/bv_n3+fredkin_3":          "6d23b20c4ea3dd8b019a355c75ef4197ed9890c4b5c73bb5aa4b4d0cfc274dad",
	"ibmq16/X-SWAP-only/3_17_13+alu-v0_27":        "3b5ff2223b94ef23678669592b218ee32e5226d880d8319202fd60f427a1f849",
	"ibmq16/CDAP+X-SWAP/bridge/3_17_13+alu-v0_27": "f0ddb49f4d05209ec302db14b23830ec4f2ab2a141e9dd4b134f4e864d236fa3",
	"ibmq50/CDAP+X-SWAP/Mix_1":                    "e39f470db6df9e44a534ed301f0d2323f6e74deb599c50bc74301a99cbf1736b",
	"ibmq50/CDAP+X-SWAP/Mix_2":                    "3e665d3731134d3bea028742701aa7735f5e9691bfe0497db4b0a14c8aaf117d",
	"ibmq50/CDAP+X-SWAP/Mix_3":                    "1e5699233fa39adb638193c4637b26eec466c920a02e897a0abbf6e64758d63b",
	"ibmq50/CDAP+X-SWAP/Mix_4":                    "acf554fe6e013cf015ff9c0a998b83be02a535abc57ccbdb131cd3e14b955f8a",
	"ibmq50/CDAP+X-SWAP/Mix_5":                    "b9e15c4bee7fe4f9096fe0a2608d70b095cf2053ea0f30010eab29b3f6fdeeba",
	"ibmq50/CDAP+X-SWAP/Mix_6":                    "de7e34dda17101b764294c83f56b3e390c4726fcbb06a269c82ac8ddfdaae166",
	"ibmq50/CDAP+X-SWAP/Mix_7":                    "c3c4d24ce14f50f87d118ca7f1dd76f12331ca5ab79de6b8763a9e406398b753",
	"ibmq50/CDAP+X-SWAP/Mix_8":                    "23c607683fc88eb4250d808339f5c1f7b6a7de2304ded72909b7e529aba3895d",
	"ibmq50/CDAP+X-SWAP/Mix_9":                    "f7f65c1a354bdb342f8e4685b4c9d27f0b89803c1feec35c72cdb4d68ea728a3",
	"ibmq50/CDAP+X-SWAP/Mix_10":                   "c6a9a5682eaeed10b756c98cf8a433daedc9a4ed40c96ccf87f0071ef530c67e",
	"ibmq50/CDAP+X-SWAP/Mix_11":                   "941d9ec5c5cc35b97d0813d6e9a1824bb002aca1b4d1398e0bb274c4fd46c87f",
	"ibmq50/CDAP+X-SWAP/Mix_12":                   "0eab7415e2b06b9ab42bf3f0462fbb896e8b04776263a5365a80b5e0395d37c7",
}

// hashAttempts compiles the workload once per seed 1..5 and folds every
// schedule into one digest.
func hashAttempts(t *testing.T, c *Compiler, progs []*circuit.Circuit, strat Strategy) string {
	t.Helper()
	h := sha256.New()
	for seed := int64(1); seed <= 5; seed++ {
		res, err := c.compileOnce(context.Background(), progs, strat, seed)
		if err != nil {
			fmt.Fprintf(h, "seed %d: error %v\n", seed, err)
			continue
		}
		fmt.Fprintf(h, "seed %d\n", seed)
		hashResult(h, res)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func hashResult(w io.Writer, res *Result) {
	for _, s := range res.Schedules {
		for _, op := range s.Ops {
			fmt.Fprintf(w, "%d %s %v %x %t %t %d %d %d\n", op.Program, op.Gate.Name, op.Gate.Qubits,
				op.Gate.Params, op.IsSwap, op.InterProgram, op.GateIndex, op.TriggerProgram, op.BridgePart)
		}
		fmt.Fprintf(w, "final %v swaps %d inter %d bridges %d\n", s.FinalMapping, s.SwapCount, s.InterSwapCount, s.BridgeCount)
	}
}

func mustProgs(names ...string) []*circuit.Circuit {
	out := make([]*circuit.Circuit, len(names))
	for i, n := range names {
		out[i] = nisqbench.MustGet(n)
	}
	return out
}

// TestRouteGolden pins every schedule the compile pipeline produces on
// the paper's workloads to a recorded digest: all six strategies on
// three Table II pairs (IBMQ16, seeds 1..5, one bridged row) and
// CDAP+X-SWAP on the Table III mixes (IBMQ50).
func TestRouteGolden(t *testing.T) {
	check := func(key, got string) {
		t.Helper()
		if want := routeGolden[key]; got != want {
			t.Errorf("schedule moved:\n\t%q: %q,", key, got)
		}
	}
	d16 := arch.IBMQ16(0)
	for _, strat := range Strategies {
		for _, pair := range goldenPairs {
			c := NewCompiler(d16)
			check(fmt.Sprintf("ibmq16/%s/%s+%s", strat, pair[0], pair[1]),
				hashAttempts(t, c, mustProgs(pair[0], pair[1]), strat))
		}
	}
	bridged := NewCompiler(d16)
	bridged.Bridge = true
	check("ibmq16/CDAP+X-SWAP/bridge/3_17_13+alu-v0_27",
		hashAttempts(t, bridged, mustProgs("3_17_13", "alu-v0_27"), CDAPXSwap))

	d50 := arch.IBMQ50(0)
	for mi, mix := range goldenMixes {
		if testing.Short() && !goldenShortMixes[mi] {
			continue
		}
		c := NewCompiler(d50)
		check(fmt.Sprintf("ibmq50/CDAP+X-SWAP/Mix_%d", mi+1), hashAttempts(t, c, mustProgs(mix...), CDAPXSwap))
	}
}
