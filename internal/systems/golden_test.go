package systems

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dsp"
	"repro/internal/fxsim"
	"repro/internal/sfg"
	"repro/internal/spec"
)

// simGolden pins every Outcome field of the simulator, as exact float bits,
// on the registry systems, the example specs and the PSD, KeepError and
// InputSignals paths. Each value reads
//
//	Power Mean Variance RefPower Samples hash(ErrPSD) hash(Err)
//
// with the four moments as IEEE-754 bit patterns and the two hashes FNV-1a
// over the bit patterns (ErrPSD.Mean first, then its bins). 1001 samples
// leaves unaligned adder tails in dwt97, which the simulator must flush.
var simGolden = map[string]string{
	"fir-lp31(tab1)/simulate/n=32768":        "3e200ac71abb503e be858fba55d396a6 3e200ab8939131fc 3fbf2c6426e794e5 32768 a8c7f832281a39c5 cbf29ce484222325",
	"fir-lp31(tab1)/run-signals/n=32768":     "3e1fe05008a56722 be759dfe1a4c51e1 3e1fe048bb709f3e 3fc4ed8f96db0ae2 32768 a8c7f832281a39c5 508ffef1dbfaa010",
	"iir-bw4(tab1)/simulate/n=32768":         "3e21327ce61f8b1b be86195f94572b1c 3e21326da32800ae 3fc0ae01edc77613 32768 a8c7f832281a39c5 cbf29ce484222325",
	"freq-filter(fig2)/simulate/n=32768":     "3e43a57cd7c8122d 3ec215ab18cb641d 3e43a2eebbfe1022 3f87a4f55e81c2de 32768 a8c7f832281a39c5 cbf29ce484222325",
	"freq-filter(fig2)/simulate-psd/n=32768": "3e43a57cd7c8122d 3ec215ab18cb641d 3e43a2eebbfe1022 3f87a4f55e81c2de 32768 d217a1b371eb1c4c cbf29ce484222325",
	"dwt97(fig3)/simulate/n=32768":           "3e63e2b56e3133a5 3eab47f4fb4e424e 3e63e29e2c21fd22 3fd52f6b3a16115c 32768 a8c7f832281a39c5 cbf29ce484222325",
	"dwt97(fig3)/run-psd-keep/n=32768":       "3e63e2b56e3133a5 3eab47f4fb4e424e 3e63e29e2c21fd22 3fd52f6b3a16115c 32768 0e01bc5b55b45c06 d38efe3dbf8295af",
	"decimator(M=4)/simulate/n=32768":        "3e397a885ee97be6 beaf66607c287073 3e397991e1d5b5a0 3fae988d78c95250 8192 a8c7f832281a39c5 cbf29ce484222325",
	"interpolator(L=4)/simulate/n=32768":     "3e42b35de83aaa09 be91534cea9a98bb 3e42b35486e0190b 3fcf7ed6cecb8ce3 131072 a8c7f832281a39c5 cbf29ce484222325",
	"spec:comb-notch/run/n=32768":            "3e42f0482cfc3d49 3e91e59af0bead69 3e42f03e2a9828fb 3fd03b34c1bec48f 32768 a8c7f832281a39c5 cbf29ce484222325",
	"spec:two-stage-decimator/run/n=32768":   "3e589da2016f7dba bf2031a210b93c24 3e407387d1da0852 3faea4781f67241a 8192 a8c7f832281a39c5 cbf29ce484222325",
	"fir-lp31(tab1)/simulate/n=1001":         "3e204a057f025a11 3ec065e275a8ebba 3e20419e5828e7cb 3fc014f8ea95d6d7 1001 a8c7f832281a39c5 cbf29ce484222325",
	"fir-lp31(tab1)/run-signals/n=1001":      "3e203d6c4be0a813 3ec04c77e314e401 3e20351f1d425b65 3fc3a5fa6104ef40 1001 a8c7f832281a39c5 24251979567ac25f",
	"iir-bw4(tab1)/simulate/n=1001":          "3e219d4412a09f91 3ec1e82600bb5605 3e21933ed618a0c7 3fc14395733e7780 1001 a8c7f832281a39c5 cbf29ce484222325",
	"freq-filter(fig2)/simulate/n=1001":      "3e43265754e857a8 3e92cb08a2bc4ec7 3e43264c4b766b01 3f89134268ff4465 1001 a8c7f832281a39c5 cbf29ce484222325",
	"freq-filter(fig2)/simulate-psd/n=1001":  "3e43265754e857a8 3e92cb08a2bc4ec7 3e43264c4b766b01 3f89134268ff4465 1001 be4763135d71e70d cbf29ce484222325",
	"dwt97(fig3)/simulate/n=1001":            "3e634212d2358430 3ee2fe7709107229 3e6336cca4c7e6ff 3fd56a8cf3578b21 1004 a8c7f832281a39c5 cbf29ce484222325",
	"dwt97(fig3)/run-psd-keep/n=1001":        "3e634212d2358430 3ee2fe7709107229 3e6336cca4c7e6ff 3fd56a8cf3578b21 1004 e6f8b24cb961576a 2d750b6502b3158a",
	"decimator(M=4)/simulate/n=1001":         "3e36a1ae0624c7c5 3eb920de65da3a6b 3e369f36967c887a 3fae420a63b8bb78 251 a8c7f832281a39c5 cbf29ce484222325",
	"interpolator(L=4)/simulate/n=1001":      "3e424844ad4503c2 3ec3f8d0c6acfd59 3e424526eb9fb202 3fd0172a83c387ab 4004 a8c7f832281a39c5 cbf29ce484222325",
	"spec:comb-notch/run/n=1001":             "3e42f38524887d77 beac7498a7a74384 3e42f31fedb89185 3fd0d47b0ee19756 1001 a8c7f832281a39c5 cbf29ce484222325",
	"spec:two-stage-decimator/run/n=1001":    "3e592d74e10f8844 bf20392d7fbd3de4 3e41749b19cb0b3f 3fae17268aba1456 251 a8c7f832281a39c5 cbf29ce484222325",
}

func TestSimulatorGolden(t *testing.T) {
	systems, err := Registry()
	if err != nil {
		t.Fatal(err)
	}
	specs, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(specs) == 0 {
		t.Fatalf("example specs: %v (%d found)", err, len(specs))
	}
	for _, n := range []int{1 << 15, 1001} {
		for _, s := range systems {
			check := func(name string) func(*fxsim.Outcome, error) {
				return func(o *fxsim.Outcome, err error) {
					t.Helper()
					checkGolden(t, fmt.Sprintf("%s/%s/n=%d", s.Name(), name, n), o, err)
				}
			}
			check("simulate")(s.Simulate(12, SimConfig{Samples: n, Seed: 1}))
			switch s.Name() {
			case "freq-filter(fig2)":
				check("simulate-psd")(s.Simulate(12, SimConfig{Samples: n, Seed: 1, PSDBins: 64}))
			case "dwt97(fig3)":
				g, err := s.Graph(12)
				if err != nil {
					t.Fatal(err)
				}
				check("run-psd-keep")(fxsim.Run(g, fxsim.Config{Samples: n, Seed: 1, PSDBins: 64, Window: dsp.Hann, KeepError: true}))
			case "fir-lp31(tab1)":
				g, err := s.Graph(12)
				if err != nil {
					t.Fatal(err)
				}
				x := make([]float64, n)
				for i := range x {
					x[i] = 0.9 * math.Sin(0.037*float64(i)*float64(i%7+1))
				}
				in := map[sfg.NodeID][]float64{g.Inputs()[0]: x}
				check("run-signals")(fxsim.Run(g, fxsim.Config{InputSignals: in, KeepError: true}))
			}
		}
		for _, path := range specs {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := spec.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			g, err := sp.Build()
			if err != nil {
				t.Fatal(err)
			}
			name := strings.TrimSuffix(filepath.Base(path), ".json")
			o, err := fxsim.Run(g, fxsim.Config{Samples: n, Seed: 1})
			checkGolden(t, fmt.Sprintf("spec:%s/run/n=%d", name, n), o, err)
		}
	}
}

func checkGolden(t *testing.T, key string, o *fxsim.Outcome, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", key, err)
		return
	}
	got := outcomeFingerprint(o)
	if want, ok := simGolden[key]; !ok || got != want {
		t.Errorf("%q: %q, // want %q", key, got, want)
	}
}

func outcomeFingerprint(o *fxsim.Outcome) string {
	b := math.Float64bits
	return fmt.Sprintf("%016x %016x %016x %016x %d %016x %016x",
		b(o.Power), b(o.Mean), b(o.Variance), b(o.RefPower), o.Samples,
		floatsHash(append([]float64{o.ErrPSD.Mean}, o.ErrPSD.Bins...)), floatsHash(o.Err))
}

func floatsHash(xs []float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	return h.Sum64()
}
