package barrierpoint_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	bp "barrierpoint"
	"barrierpoint/internal/workload"
)

// selectionPins are SHA-256 digests of Analysis.Save for every benchmark of
// the suite at three sizes, keyed "<workload>/x<scale>/<threads>t". They
// were generated at commit 2e71d62, before cluster.Select began measuring
// distances once per class of bit-identical projected rows instead of once
// per region: that change may not move one bit of any selection (chosen k,
// assignment, representatives, multipliers, weights, BIC vector, Spread,
// RepDists), and neither may anything later that claims byte-identity.
var selectionPins = map[string]string{
	"parsec-bodytrack/x0.2/8t":  "63d31382868e265f66b2d082b7cc22029a46c19b69610244e597a0b4d647329f",
	"parsec-bodytrack/x0.2/32t": "55dbd7a43a62bf0c41a2953e307d10e3094a1395e7f12d728b1d34e5fcaaac43",
	"parsec-bodytrack/x0.5/8t":  "a5e5a8cc002232b5e8514ac0fdfc6fa8d96ef8c5fa11911aa5fa075c46663784",
	"npb-bt/x0.2/8t":            "c6f14ab93aade7baca404955284a8c4cd943bdc0e95eab5fcc106594b0844f15",
	"npb-bt/x0.2/32t":           "5b64e407f837a6f2e1bbec6f50c55579648f33adc29017cf56b2d0af5cca7be9",
	"npb-bt/x0.5/8t":            "533baac5198ca41566e40b3f405e487e5899a043242d32cbaf87a928830503bc",
	"npb-cg/x0.2/8t":            "d447c53409a97c98483e522ac13b451f1f55a171f06c92b0fdbbdfb4021143b8",
	"npb-cg/x0.2/32t":           "362c48cba48150a35dcccb702389d7ce48f2343743edd5e5938872dbd88b9ec9",
	"npb-cg/x0.5/8t":            "8b9b9e0624b2b43fe49a822c31b72eb484cbf4cf98933ded769f1db9ca515287",
	"npb-ft/x0.2/8t":            "059851dadd91461e275c3871faa01e56032c401711119276da955abcc9334cda",
	"npb-ft/x0.2/32t":           "bcc4f1118a33f711ade207c406b1f1abd03ec89e0f173b205bbd32101288cbb4",
	"npb-ft/x0.5/8t":            "6a9077c3e0b0a803c87410024f74682f1e6cf50027c1df3c2ea5479a0ef21149",
	"npb-is/x0.2/8t":            "474c39299f24068a40dc271a5b18bef1641d9928f0ec96761a147d2086a388ee",
	"npb-is/x0.2/32t":           "e5804a8a65d7dd22756478af36e9ac3371d3ee7574846cd13c142b8e9d5b1115",
	"npb-is/x0.5/8t":            "41448ce8ff19978fe7372fc39b07c450e466733da609974acb29c42065d75649",
	"npb-lu/x0.2/8t":            "4d779df51d35a715e6da6f9a65dca30b8c7411a9f8a4339aed6950905ca0ad24",
	"npb-lu/x0.2/32t":           "b183228f47d2d41188f08694b6870588461502397bc5ea122fe49c1def18b248",
	"npb-lu/x0.5/8t":            "73a1487388a96704c613cc7784acf6c016af96f57bf2ac2296a03041a6afbf96",
	"npb-mg/x0.2/8t":            "ecfadd3e74474c3159fbf3f3c35402bc81e4e9173e8491cc392cb8913f6bc41e",
	"npb-mg/x0.2/32t":           "1e2272d5751136f93de5c8476f26ec937c852a15a0b02cabb3c90ed15dc58be4",
	"npb-mg/x0.5/8t":            "023af2c2d46d7d1833a8cbc4257efaf1eaf2124a4f7ecfec5565bf28c575ae63",
	"npb-sp/x0.2/8t":            "29df8e8eb8ab4d6b4276f71564efc4df1d75af25cfdc8517e0af3c9906a9d80b",
	"npb-sp/x0.2/32t":           "2db63c402ecb8f354ea97ee6f63a7953de6f3f67bae6769aad6bf976622aaf48",
	"npb-sp/x0.5/8t":            "ffc72c1de1a114367448ee47504ebba694591123fb678efa686ed1af046efab6",
}

func TestSelectionPins(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles 24 programs")
	}
	sizes := []struct {
		scale   float64
		threads int
	}{{0.2, 8}, {0.2, 32}, {0.5, 8}}
	for _, name := range workload.Names() {
		for _, sz := range sizes {
			key := fmt.Sprintf("%s/x%g/%dt", name, sz.scale, sz.threads)
			a, err := bp.Analyze(workload.New(name, sz.threads, workload.WithScale(sz.scale)), bp.DefaultConfig())
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			var buf bytes.Buffer
			if err := a.Save(&buf); err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != selectionPins[key] {
				t.Errorf("%q: %q,", key, got)
			}
		}
	}
}
