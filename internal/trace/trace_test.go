package trace

import (
	"io"
	"testing"

	"morrigan/internal/arch"
)

func testParams() ServerParams {
	return ServerParams{
		Seed:             1,
		CodePages:        256,
		DataPages:        2048,
		HotFrac:          0.15,
		WarmFrac:         0.35,
		PHot:             0.7,
		PWarm:            0.25,
		RoutineLenMin:    2,
		RoutineLenMax:    10,
		RunLenMin:        8,
		RunLenMax:        48,
		EntryPoints:      4,
		SeqFrac:          0.1,
		SmallDeltaFrac:   0.2,
		BranchSkipFrac:   0.15,
		SuccWeights:      [5]float64{0.35, 0.20, 0.20, 0.18, 0.07},
		RandomCallFrac:   0.15,
		LoadFrac:         0.25,
		StoreFrac:        0.1,
		DataZipfS:        1.3,
		DataStreamFrac:   0.2,
		PhaseLen:         50_000,
		PhaseShuffleFrac: 0.1,
	}
}

func TestSliceAndLimit(t *testing.T) {
	sr := &SliceReader{Records: []Record{
		{PC: 0x1000}, {PC: 0x1004, Load: 0x2000}, {PC: 0x1008, Store: 0x3000},
	}}
	got, err := Slice(Limit(sr, 2), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1].Load != 0x2000 {
		t.Fatalf("Slice = %+v", got)
	}
	sr.Reset()
	all, err := Slice(sr, 10)
	if err != nil || len(all) != 3 {
		t.Fatalf("Slice after Reset = %+v, err %v", all, err)
	}
	if n, err := sr.NextBatch(make([]Record, 1)); n != 0 || err != io.EOF {
		t.Fatalf("exhausted SliceReader = %d, %v, want 0, EOF", n, err)
	}
}

func TestRecordHasOps(t *testing.T) {
	r := Record{PC: 1}
	if r.HasLoad() || r.HasStore() {
		t.Error("empty record should have no ops")
	}
	r.Load, r.Store = 5, 6
	if !r.HasLoad() || !r.HasStore() {
		t.Error("record with ops misreported")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a, _ := Slice(NewServerGenerator(testParams()), 10_000)
	b, _ := Slice(NewServerGenerator(testParams()), 10_000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	p := testParams()
	p.Seed = 2
	c, _ := Slice(NewServerGenerator(p), 10_000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestGeneratorAddressRanges(t *testing.T) {
	g := NewServerGenerator(testParams())
	recs, _ := Slice(g, 50_000)
	codeEnd := CodeBaseVPN + arch.VPN(testParams().CodePages)
	dataEnd := DataBaseVPN + arch.VPN(testParams().DataPages)
	loads, stores := 0, 0
	for _, r := range recs {
		vpn := r.PC.Page()
		if vpn < CodeBaseVPN || vpn >= codeEnd {
			t.Fatalf("PC %#x outside code region", r.PC)
		}
		if r.PC%4 != 0 {
			t.Fatalf("PC %#x not 4-byte aligned", r.PC)
		}
		if r.HasLoad() {
			loads++
			v := r.Load.Page()
			if v < DataBaseVPN || v >= dataEnd {
				t.Fatalf("load %#x outside data region", r.Load)
			}
		}
		if r.HasStore() {
			stores++
			v := r.Store.Page()
			inData := v >= DataBaseVPN && v < dataEnd
			inStack := v >= StackVPN && v < StackVPN+8
			if !inData && !inStack {
				t.Fatalf("store %#x outside data/stack regions", r.Store)
			}
		}
	}
	if loads == 0 || stores == 0 {
		t.Fatalf("no memory ops generated: loads=%d stores=%d", loads, stores)
	}
	// Load fraction should be near the configured 25%.
	frac := float64(loads) / float64(len(recs))
	if frac < 0.2 || frac > 0.3 {
		t.Errorf("load fraction = %v, want ~0.25", frac)
	}
	if g.Emitted() != uint64(len(recs)) {
		t.Errorf("Emitted = %d, want %d", g.Emitted(), len(recs))
	}
}

func TestGeneratorPageTransitions(t *testing.T) {
	g := NewServerGenerator(testParams())
	recs, _ := Slice(g, 100_000)
	transitions := 0
	distinct := map[arch.VPN]bool{}
	for i := 1; i < len(recs); i++ {
		distinct[recs[i].PC.Page()] = true
		if recs[i].PC.Page() != recs[i-1].PC.Page() {
			transitions++
		}
	}
	// Mean run length ~28 instructions => roughly 3.5k transitions per 100k.
	if transitions < 1000 {
		t.Errorf("only %d page transitions in 100k instructions", transitions)
	}
	if len(distinct) < 50 {
		t.Errorf("only %d distinct code pages touched", len(distinct))
	}
}

func TestGeneratorPhaseChangesShiftHotSet(t *testing.T) {
	p := testParams()
	p.PhaseLen = 20_000
	p.PhaseShuffleFrac = 0.5
	g := NewServerGenerator(p)
	recs, _ := Slice(g, 200_000)
	counts := func(lo, hi int) map[arch.VPN]int {
		m := map[arch.VPN]int{}
		for _, r := range recs[lo:hi] {
			m[r.PC.Page()]++
		}
		return m
	}
	early := counts(0, 20_000)
	late := counts(180_000, 200_000)
	// The hottest page early should usually not be the hottest page late.
	hottest := func(m map[arch.VPN]int) (best arch.VPN) {
		bc := -1
		for v, c := range m {
			if c > bc || (c == bc && v < best) {
				best, bc = v, c
			}
		}
		return best
	}
	if hottest(early) == hottest(late) {
		t.Log("hot set survived phase changes (possible but unlikely); not failing")
	}
}

func TestValidate(t *testing.T) {
	cases := []func(*ServerParams){
		func(p *ServerParams) { p.CodePages = 2 },
		func(p *ServerParams) { p.DataPages = 0 },
		func(p *ServerParams) { p.HotFrac = 0 },
		func(p *ServerParams) { p.HotFrac = 0.6; p.WarmFrac = 0.5 },
		func(p *ServerParams) { p.PHot = 0.9; p.PWarm = 0.2 },
		func(p *ServerParams) { p.RoutineLenMin = 0 },
		func(p *ServerParams) { p.RoutineLenMax = 1; p.RoutineLenMin = 3 },
		func(p *ServerParams) { p.RoutineLenMin = 10000 },
		func(p *ServerParams) { p.RunLenMin = 0 },
		func(p *ServerParams) { p.RunLenMax = 2; p.RunLenMin = 4 },
		func(p *ServerParams) { p.RunLenMax = 2000 },
		func(p *ServerParams) { p.EntryPoints = 0 },
	}
	for i, mutate := range cases {
		p := testParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	p := testParams()
	if err := p.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}
