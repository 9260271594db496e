package main

import "testing"

func TestAnalyzeSplitsOpTimeAmongLayers(t *testing.T) {
	// One op of 1000 ns: a viewer call over all of it, two overlapping
	// client calls under it, one with a round trip and a handler, and
	// a stretch at the end no span covers.
	spans := []span{
		{Op: 1, ID: 1, Layer: layerOp, Start: 0, End: 1050},
		{Op: 1, ID: 2, Parent: 1, Layer: layerViewer, Start: 0, End: 1000},
		{Op: 1, ID: 3, Parent: 2, Layer: layerGearCli, Start: 100, End: 500},
		{Op: 1, ID: 4, Parent: 3, Layer: layerWire, Start: 200, End: 400},
		{Op: 1, ID: 5, Parent: 4, Layer: layerGearSrv, Start: 250, End: 350},
		{Op: 1, ID: 6, Parent: 2, Layer: layerGearCli, Start: 300, End: 700},
		{Op: 0, ID: 8, Layer: layerGearCli, Start: 0, End: 5000}, // background
	}
	lt := analyze(spans)
	if lt.ops != 1 {
		t.Fatalf("ops = %d, want 1", lt.ops)
	}
	if lt.opNanos != 1050 {
		t.Errorf("op time = %d, want 1050", lt.opNanos)
	}
	// [0,100) viewer; [100,200) call 3; [200,250) its round trip;
	// [250,300) the handler; [300,350) handler and call 6 share;
	// [350,400) round trip and call 6 share; [400,500) both calls share;
	// [500,700) call 6; [700,1000) viewer; then a gap.
	want := map[string]int64{
		layerViewer:  100 + 300,
		layerGearCli: 100 + 25 + 25 + 100 + 200,
		layerWire:    50 + 25,
		layerGearSrv: 50 + 25,
	}
	var sum int64
	for layer, ns := range want {
		if lt.byLayer[layer] != ns {
			t.Errorf("%s = %d ns, want %d", layer, lt.byLayer[layer], ns)
		}
		sum += lt.byLayer[layer]
	}
	if lt.unattributed != 50 {
		t.Errorf("unattributed = %d, want the 50 ns after the viewer call", lt.unattributed)
	}
	if len(lt.gapShares) != 1 || lt.gapShares[0] != 50.0/1050 {
		t.Errorf("gap shares = %v, want the one op's 50/1050", lt.gapShares)
	}
	if sum+lt.unattributed != lt.opNanos {
		t.Errorf("layers %d + unattributed %d != op time %d", sum, lt.unattributed, lt.opNanos)
	}
}

func TestAnalyzeClipsSpansToTheirOp(t *testing.T) {
	spans := []span{
		{Op: 1, ID: 1, Layer: layerOp, Start: 100, End: 200},
		{Op: 1, ID: 2, Parent: 1, Layer: layerViewer, Start: 100, End: 200},
		{Op: 1, ID: 3, Parent: 2, Layer: layerGearCli, Start: 150, End: 900}, // readahead outlives the read
	}
	lt := analyze(spans)
	if lt.byLayer[layerViewer] != 50 || lt.byLayer[layerGearCli] != 50 || lt.opNanos != 100 {
		t.Errorf("got %+v", lt)
	}
}
