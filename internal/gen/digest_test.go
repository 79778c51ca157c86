package gen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"io"
	"testing"
	"time"

	"enttrace/internal/enterprise"
	"enttrace/internal/pcap"
)

// hashPacket folds one packet into h: timestamp in nanoseconds, wire
// length, captured length, captured bytes.
func hashPacket(h hash.Hash, p *pcap.Packet) {
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[0:8], uint64(p.Timestamp.UnixNano()))
	binary.LittleEndian.PutUint32(rec[8:12], uint32(p.OrigLen))
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(p.Data)))
	h.Write(rec[:])
	h.Write(p.Data)
}

func digestOf(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// TestGeneratorDigests pins the generator's bytes. The determinism tests
// compare a run with itself, so a change that moved every frame — and
// with it every table in EXPERIMENTS — while staying self-consistent
// would pass them; this one fails. The constants were recorded at the
// parent of the commit that introduced this test (da1f5b0, the two-buffer
// builders and the stable sort of whole packets), before the frame
// kernel, the arena, the key sort or the concurrent GenerateDataset
// existed, and CI runs it at -cpu 1,4: a dataset generated on several
// goroutines must hash like one generated on one. A change that means to
// move the generator's output re-records them and says so.
func TestGeneratorDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates three datasets")
	}
	check := func(t *testing.T, name, got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("%s: digest %s, recorded %s", name, got, want)
		}
	}

	datasets := map[string]struct {
		cfg                enterprise.Config
		packets, firstPcap string
	}{
		"D0": {cfg: enterprise.D0(),
			packets:   "78d3e33a36b5f8ddaedfe6856576c2a3f048145f766b98b296f01d806aa8f211",
			firstPcap: "0789206c665ab44552ac9ee31cd7d8799903527e94baf255a028ede657028946"},
		"D2": {cfg: enterprise.D2(),
			packets:   "d016701ae9dea468ae7ffcad0053081b25da12497d2a6fbe94c14a0e9c9b7885",
			firstPcap: "a14791b8286e282af6fcfa619b2713f53bca74dbfe4a2ee567d57e5e1151975c"},
		"D3": {cfg: enterprise.D3(),
			packets:   "2fd0ca3a73bab56b430c86c4f8941fa98bd182627aee7e9003f2af2e059fd217",
			firstPcap: "c8df5d3482d7078e4e8d48b6c20b011957606afdd13d88be8a2e38b2b24440ed"},
	}
	for name, tc := range datasets {
		t.Run("dataset/"+name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Scale = 0.15
			ds := GenerateDataset(cfg)
			h := sha256.New()
			for _, tr := range ds.Traces {
				var hdr [12]byte
				binary.LittleEndian.PutUint32(hdr[0:4], uint32(tr.Subnet))
				binary.LittleEndian.PutUint32(hdr[4:8], uint32(tr.Tap))
				binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(tr.Packets)))
				h.Write(hdr[:])
				for _, p := range tr.Packets {
					hashPacket(h, p)
				}
			}
			check(t, "packets", digestOf(h), tc.packets)
			// The file a trace serializes to, snaplen and µs timestamps
			// applied by the writer.
			h = sha256.New()
			if err := WriteTrace(h, cfg, ds.Traces[0]); err != nil {
				t.Fatal(err)
			}
			check(t, "WriteTrace(trace 0)", digestOf(h), tc.firstPcap)
		})
	}

	// The default shape tiled to an hour through StreamSource, at the
	// full-payload and at the header snaplen.
	for name, tc := range map[string]struct {
		cfg  enterprise.Config
		want string
	}{
		"D3": {enterprise.D3(), "32e055faeead8927d18ee48b69d8b742b75a318f0408085bc423536e31044155"},
		"D1": {enterprise.D1(), "245ea36eeedfe9a1c7aa2ce7528b784c6a702f9aa0ec8018b6853db5e3581224"},
	} {
		t.Run("stream/"+name, func(t *testing.T) {
			src := NewStreamSource(StreamConfig{
				Network:  enterprise.NewNetwork(tc.cfg),
				Subnet:   tc.cfg.Monitored[0],
				Schedule: DefaultSchedule().Repeat(time.Hour),
				Snaplen:  tc.cfg.Snaplen,
			})
			h := sha256.New()
			for {
				p, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				hashPacket(h, p)
				src.Release(p)
			}
			check(t, "frames", digestOf(h), tc.want)
		})
	}

	evasion := map[string]string{
		"overlap-conflict": "1950de09ab6620ba9318fae0c9ff82d5ad9b11ccf3ad904e8fe2932bbd6e866c",
		"bogus-rst":        "b906893e054d6bc77e41f2b3fb229bc2e0935106a4880a4da80d673c33d20d88",
		"seq-wrap":         "503fc0581a5eeccde8c5b149dff661fbf8824fc48933b0db1f32053e746f7e18",
		"gap-unfilled":     "83779494bd301336af77a847470fa6e6481492f2865609c330ec73dfb187dbcb",
		"gap-maxpending":   "970a08297bae8985f77d7745af0b5244a43260e71545e3f13df5984758250d82",
		"retrans-storm":    "aa8fc513a48051e8e30b6e8f6c842f14374c929336beffbb1358e2799015dd2c",
		"trunc-headers":    "47cbc6da27e574f1a66fd165fa91a6b97011441bbb6f43aae7ec35160fcded77",
	}
	for _, sc := range EvasionScenarios() {
		t.Run("evasion/"+sc.Name, func(t *testing.T) {
			want, ok := evasion[sc.Name]
			if !ok {
				t.Fatalf("no digest recorded for scenario %s", sc.Name)
			}
			h := sha256.New()
			for _, p := range sc.Build().Packets {
				hashPacket(h, p)
			}
			check(t, "packets", digestOf(h), want)
		})
	}
}
