// Golden bit-exactness gate: the full Stats of every paper network,
// under both arbitration modes, below and past saturation, is pinned
// by digest. Performance work must leave every digest unchanged; a
// deliberate behaviour change updates the pins and says why in
// CHANGES.md (it also moves simrun.Fingerprint, pinned in simrun).
package engine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"minsim/internal/engine"
	"minsim/internal/experiments"
)

// goldenStats pins sha256(fmt "%+v" of Stats) per net/arbitration/load
// for uniform traffic, traffic seed 7, engine seed 42, 1000+3000
// cycles, channel statistics off (the default fast path).
var goldenStats = map[string]string{
	"tmin-cube/random/0.4":      "02dfda59710843ea3e2a14a6cf48b9000b82c71384ef111f3d8244d178bda2f0",
	"tmin-cube/random/0.9":      "0fb2dbb4b6d3e124cd89050bf66799f6d71ac4ac74e9bb7bdd4d32e5a96135da",
	"tmin-cube/oldest/0.4":      "256803036a2924287bc2addd80586a51c7c25e3a240e4f02aab04331053edf25",
	"tmin-cube/oldest/0.9":      "6a488f4e4da401a7a3c2a72dd818364c8d75bce26416ea3f4845545555741d65",
	"tmin-butterfly/random/0.4": "b6169ae2aeec9c9271040eed2ef191a1f708ed1cb5a94460d834e4c3a6ff1334",
	"tmin-butterfly/random/0.9": "37892c2ea48cbdbd64fe4e35983dbc2b3b1270b180632173d2487dd7d251fb98",
	"tmin-butterfly/oldest/0.4": "b385928794f1d04774d8ef5fe92c9ba9c1f8b6617213a4eff634746b451a01db",
	"tmin-butterfly/oldest/0.9": "aac8e9b4d599c901e2b64dc389825e4b4f9f545914638fc067247bfd96292ffa",
	"dmin-cube/random/0.4":      "c4a03e64c343bb194ff6008b6621daa3eacc653d0410842050a21810a049af57",
	"dmin-cube/random/0.9":      "cbbe26402674ff0f5cc87ee8114a13ae08fd0c592d41d4bcf4e5c64ebf1519d1",
	"dmin-cube/oldest/0.4":      "202750d6c3a3a9f18074ce44caf9317ee332262ccda0f6b15ac06126ed966769",
	"dmin-cube/oldest/0.9":      "47c3364e05f9714935acec7aca9e149ded833b20ba7d760f7dfac04021617299",
	"vmin-cube/random/0.4":      "1d87c85b88f40cc82b5713bd8eaed11591a23a0aada007e23dd55bd1ec17268d",
	"vmin-cube/random/0.9":      "a0e5b3d4355cf49fd2f8916a6d17ee65ea867ea9626a52f65c9dee6a7f64bb16",
	"vmin-cube/oldest/0.4":      "a9bd59d1099525b0d5d6dcf9d091b5287c286ed37e6e2964ccce261e081a9ef0",
	"vmin-cube/oldest/0.9":      "a6d13551171b7c488552b19b128f734f5a976577d3cdded9c39c3216d482a291",
	"bmin-butterfly/random/0.4": "1f0d9322517eace2818169b47fe4fb1d5e7a0a43841b219a7356d6f6aae5fed8",
	"bmin-butterfly/random/0.9": "5ed7b68d27847a99dd4ea9b9f9dd15961558760607e5dd4f8b1204a16af68f68",
	"bmin-butterfly/oldest/0.4": "86160d0c910c18aa99e4545ce04cac04764f43553f726a6d853e577a16f94559",
	"bmin-butterfly/oldest/0.9": "72647ef6547d7da70b3f4c277e7dbaa973b2d96b100c5b0d1b70f6bdf742afbd",
}

func TestGoldenStatsPaperSpecs(t *testing.T) {
	arbs := []struct {
		name string
		arb  engine.Arbitration
	}{{"random", engine.ArbitrateRandom}, {"oldest", engine.ArbitrateOldestFirst}}
	for _, ns := range experiments.PaperSpecs() {
		for _, a := range arbs {
			// 0.4 is below every paper network's saturation point
			// except the TMINs'; 0.9 is past all of them.
			for _, load := range []float64{0.4, 0.9} {
				name := fmt.Sprintf("%s/%s/%.1f", ns.Name, a.name, load)
				net, err := ns.Spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				e, err := engine.New(engine.Config{
					Net:         net,
					Source:      uniformSource(t, net.Nodes, load, 7),
					Seed:        42,
					Arbitration: a.arb,
				})
				if err != nil {
					t.Fatal(err)
				}
				e.SetMeasureFrom(1000)
				e.Run(4000)
				sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", e.Stats())))
				if got, want := hex.EncodeToString(sum[:]), goldenStats[name]; got != want {
					t.Errorf("%q: %q, // was %q; Stats %+v", name, got, want, e.Stats())
				}
			}
		}
	}
}
