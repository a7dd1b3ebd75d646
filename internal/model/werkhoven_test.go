package model

import (
	"math"
	"testing"
)

func TestWerkhovenOrdering(t *testing.T) {
	// More overlap can only help: serial >= 2-way >= 1-engine >= CSO
	// (2 copy engines) for a full-offload problem with substantial
	// transfers in both directions.
	sm := newSub()
	sm.h2dInvBw, sm.d2hInvBw = 1e-9, 1e-9 // slow link, transfers matter
	p := gemmFull(8192, 8192, 8192)
	sm.full = sm.tile(8192)
	T := 1024
	serial, err := PredictExtended(WerkSerial, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	twoWay, err := PredictExtended(Werk2Way, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	oneEngine, err := PredictExtended(Werk1Engine, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	cso, err := PredictExtended(CSO, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	if !(serial >= twoWay && twoWay >= oneEngine && oneEngine >= cso) {
		t.Errorf("overlap ordering violated: serial=%g 2way=%g 1eng=%g cso=%g",
			serial, twoWay, oneEngine, cso)
	}
	if serial <= cso {
		t.Error("serial must be strictly worse than full 3-way overlap")
	}
}

func TestWerkSerialIsSum(t *testing.T) {
	sm := newSub()
	p := gemmFull(4096, 4096, 4096)
	sm.full = 0.5
	got, err := PredictExtended(WerkSerial, &p, sm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	bytes := int64(4096) * 4096 * 8
	want := sm.TransferTime(0, 3*bytes) + 0.5 + sm.TransferTime(1, bytes)
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("serial = %g, want %g", got, want)
	}
}

func TestAblDRIntegerOverchargesRaggedTiles(t *testing.T) {
	// At a tile size that does not divide the problem, the integer-count
	// ablation must predict more time than the fractional DR model (it
	// charges edge tiles as full tiles).
	sm := newSub()
	p := gemmFull(8192, 8192, 8192)
	T := 3328 // 8192/3328 = 2.46 -> ceil 3 per dim
	frac, err := Predict(DR, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	integer, err := PredictExtended(AblDRInteger, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	if integer <= frac {
		t.Errorf("integer tiles (%g) should exceed fractional (%g) at ragged T", integer, frac)
	}
	// At a dividing tile size the two agree.
	T = 2048
	frac, _ = Predict(DR, &p, sm, T)
	integer, _ = PredictExtended(AblDRInteger, &p, sm, T)
	if math.Abs(frac-integer) > 1e-12 {
		t.Errorf("dividing T: fractional %g != integer %g", frac, integer)
	}
}

func TestAblBTSUnidirUnderestimatesContention(t *testing.T) {
	// Removing the bidirectional slowdown can only lower the prediction
	// for transfer-bound problems with traffic in both directions.
	sm := newSub()
	sm.h2dInvBw, sm.d2hInvBw = 1e-8, 1e-8
	p := gemmFull(8192, 8192, 8192)
	T := 1024
	bts, err := Predict(BTS, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	uni, err := PredictExtended(AblBTSUnidir, &p, sm, T)
	if err != nil {
		t.Fatal(err)
	}
	if uni >= bts {
		t.Errorf("no-bid ablation (%g) should be below BTS (%g)", uni, bts)
	}
}

func TestPredictExtendedFallsBack(t *testing.T) {
	sm := newSub()
	p := gemmFull(4096, 4096, 4096)
	a, err := PredictExtended(DataLoc, &p, sm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Predict(DataLoc, &p, sm, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("PredictExtended must delegate primary kinds to Predict")
	}
	if _, err := PredictExtended(Kind("nope"), &p, sm, 1024); err == nil {
		t.Error("unknown kind should error through the fallback")
	}
	if _, err := PredictExtended(WerkSerial, &p, sm, 0); err == nil {
		t.Error("T=0 should error")
	}
	bad := Params{}
	if _, err := PredictExtended(WerkSerial, &bad, sm, 1024); err == nil {
		t.Error("invalid params should error")
	}
}
