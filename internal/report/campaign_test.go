package report

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/campaign"
	"repro/internal/faults"
)

func campaignSpec() campaign.Spec {
	return campaign.Spec{
		Faults:       []string{"babbling-idiot", "stuck-line"},
		Intensities:  campaign.IntensityRange{Min: 0.25, Max: 1.0, Steps: 2},
		Seeds:        campaign.SeedRange{Base: 1, Count: 2},
		PrefixEvents: 60,
		SuffixEvents: 25,
	}
}

func foldCampaign(t *testing.T, workers int) *campaign.Aggregate {
	t.Helper()
	sp := campaignSpec()
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	agg, err := campaign.Fold(context.Background(), sp, workers)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// Golden-pin the campaign aggregate document: the full 8-cell sweep
// over two fault models × two intensities × two seeds.
func TestEncodeCampaignGolden(t *testing.T) {
	buf, err := EncodeCampaign(foldCampaign(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "campaign.json", buf)
}

// Golden-pin the per-cell wire document — the byte payload stored under
// the cell's content address — and check DecodeCell inverts it exactly.
func TestEncodeCellGoldenRoundTrip(t *testing.T) {
	sp := campaignSpec()
	if err := sp.Normalize(); err != nil {
		t.Fatal(err)
	}
	cells := sp.Expand()
	res, err := campaign.RunCellCold(sp.CellSpec(cells[0]))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := EncodeCell(res)
	if err != nil {
		t.Fatal(err)
	}
	golden(t, "campaign_cell.json", buf)

	back, err := DecodeCell(buf)
	if err != nil {
		t.Fatal(err)
	}
	buf2, err := EncodeCell(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("DecodeCell does not invert EncodeCell byte-for-byte")
	}
}

// The encoded aggregate must not depend on fold parallelism: one
// worker folds in generation order, four workers fold in completion
// order, and the commutative-monoid merge makes both encode to the
// same bytes.
func TestEncodeCampaignFoldOrderInvariant(t *testing.T) {
	a, err := EncodeCampaign(foldCampaign(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeCampaign(foldCampaign(t, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("campaign encoding depends on fold order")
	}
}

// cellGridDigest is the SHA-256 over the encoded bytes of
// TestCellGridDigest's cell grid, recorded before the per-prefix-group
// verdict derivation replaced the whole-prefix one. Any change to cell
// results, their encoding or the warm/cold equivalence moves it.
const cellGridDigest = "a73ca82dc6a10d319ba3130a6de890538e29a9aed52f07c7c0d952d984dd93d8"

// TestCellGridDigest pins the cell wire bytes over a grid that covers
// every fault model, four intensities, tiny and long prefixes and
// one-event and long suffixes: all warm on one Runner (so prefix groups
// are forked, reused and re-forked), plus every fifth cell run cold.
func TestCellGridDigest(t *testing.T) {
	faultNames := faults.Names()
	if len(faultNames) != 5 {
		t.Fatalf("grid expects 5 fault models, have %v", faultNames)
	}
	var grid []campaign.CellSpec
	for _, prefix := range []int{2, 17, 2000} {
		for _, suffix := range []int{1, 150} {
			for _, f := range faultNames {
				for _, in := range []float64{0, 0.25, 0.625, 1} {
					for _, seed := range []uint64{1, 7} {
						grid = append(grid, campaign.CellSpec{
							Fault: f, Intensity: in, Seed: seed,
							PrefixSeed: 2014, PrefixEvents: prefix, SuffixEvents: suffix,
						})
					}
				}
			}
		}
	}
	h := sha256.New()
	r := campaign.NewRunner()
	for i, cs := range grid {
		warm, err := r.Run(cs)
		if err != nil {
			t.Fatalf("warm cell %d (%+v): %v", i, cs, err)
		}
		buf, err := EncodeCell(warm)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
		if i%5 != 0 {
			continue
		}
		cold, err := campaign.RunCellCold(cs)
		if err != nil {
			t.Fatalf("cold cell %d (%+v): %v", i, cs, err)
		}
		cbuf, err := EncodeCell(cold)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, cbuf) {
			t.Fatalf("cell %d (%+v): warm and cold bytes differ\nwarm: %s\ncold: %s", i, cs, buf, cbuf)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != cellGridDigest {
		t.Fatalf("cell grid digest %s, want %s", got, cellGridDigest)
	}
}
