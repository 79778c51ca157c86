package gen

import (
	"io"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"

	"enttrace/internal/enterprise"
	"enttrace/internal/pcap"
)

// Trace is one monitored-subnet capture: the paper's unit of analysis for
// per-trace figures (utilization, retransmission rate).
type Trace struct {
	Subnet  int
	Tap     int
	Packets []*pcap.Packet
	// Prefix is the monitored subnet's address block; analyses use it to
	// decide which hosts were "monitored" in this trace.
	Prefix netip.Prefix
}

// Dataset is a full capture campaign (all subnets, all taps).
type Dataset struct {
	Config enterprise.Config
	Traces []Trace
}

// GenerateDataset runs the tap rotation for a dataset configuration.
// Traces are generated side by side, on as many goroutines as there are
// processors to run them, each into its own slot: a trace draws only on
// its own seed and Emitter and reads the network plan, which nothing
// writes after NewNetwork, so neither the width nor the order traces
// finish in can show in a byte of the result.
func GenerateDataset(cfg enterprise.Config) *Dataset {
	net := enterprise.NewNetwork(cfg)
	ds := &Dataset{Config: cfg}
	for _, subnet := range cfg.Monitored {
		for tap := 0; tap < cfg.PerTap; tap++ {
			ds.Traces = append(ds.Traces, Trace{
				Subnet: subnet,
				Tap:    tap,
				Prefix: enterprise.SubnetPrefix(subnet),
			})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(ds.Traces)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ds.Traces) {
					return
				}
				tr := &ds.Traces[i]
				tr.Packets = GenerateTrace(net, tr.Subnet, tr.Tap)
			}
		}()
	}
	wg.Wait()
	return ds
}

// TotalPackets counts packets across all traces.
func (d *Dataset) TotalPackets() int {
	n := 0
	for _, t := range d.Traces {
		n += len(t.Packets)
	}
	return n
}

// WriteTrace writes one trace as a pcap file.
func WriteTrace(w io.Writer, cfg enterprise.Config, t Trace) error {
	pw, err := pcap.NewWriter(w, cfg.Snaplen, pcap.LinkTypeEthernet)
	if err != nil {
		return err
	}
	for _, p := range t.Packets {
		if err := pw.WriteCaptured(p.Timestamp, p.Data, p.OrigLen); err != nil {
			return err
		}
	}
	return nil
}
