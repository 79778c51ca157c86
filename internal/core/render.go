package core

import (
	"fmt"
	"sort"
	"strings"

	"enttrace/internal/stats"
)

// RenderText renders a dataset report in the style of the paper's tables.
// The analysis API returns structured data; this is the presentation layer
// used by cmd/entreport and cmd/entanalyze.
func RenderText(r *Report) string {
	var b strings.Builder
	if r.Window != nil {
		fmt.Fprintf(&b, "==== Dataset %s · window %d [%s, %s) ====\n\n",
			r.Dataset, r.Window.Index,
			r.Window.Start.UTC().Format("2006-01-02 15:04:05"),
			r.Window.End.UTC().Format("15:04:05"))
	} else {
		fmt.Fprintf(&b, "==== Dataset %s ====\n\n", r.Dataset)
	}

	t1 := stats.NewTable("Table 1: dataset characteristics (measured)",
		"metric", "value")
	t1.AddRow("traces", fmt.Sprint(r.Table1.Traces))
	t1.AddRow("packets", fmt.Sprint(r.Table1.Packets))
	t1.AddRow("monitored hosts", fmt.Sprint(r.Table1.MonitoredHosts))
	t1.AddRow("LBNL hosts", fmt.Sprint(r.Table1.LocalHosts))
	t1.AddRow("remote hosts", fmt.Sprint(r.Table1.RemoteHosts))
	b.WriteString(t1.String() + "\n")

	t2 := stats.NewTable("Table 2: network-layer protocol mix (packets)", "proto", "fraction")
	for _, k := range []string{"IP", "ARP", "IPX", "Other"} {
		t2.AddRow(k, stats.Pct(r.Table2[k]))
	}
	b.WriteString(t2.String() + "\n")

	t3 := stats.NewTable("Table 3: transport mix", "transport", "bytes", "conns")
	for _, k := range []string{"TCP", "UDP", "ICMP"} {
		t3.AddRow(k, stats.Pct(r.Table3.BytesFrac[k]), stats.Pct(r.Table3.ConnsFrac[k]))
	}
	t3.AddRow("total", stats.Bytes(r.Table3.TotalBytes), fmt.Sprintf("%d conns", r.Table3.TotalConns))
	b.WriteString(t3.String() + "\n")

	fmt.Fprintf(&b, "Scanner removal (§3): %d scanners, %s of connections removed\n\n",
		r.Scan.Scanners, stats.Pct(r.Scan.RemovedFraction))

	f1 := stats.NewTable("Figure 1: application categories (% of unicast payload / connections)",
		"category", "bytes ent", "bytes wan", "conns ent", "conns wan")
	for _, row := range r.Figure1 {
		f1.AddRow(row.Category,
			stats.Pct(row.BytesEnt), stats.Pct(row.BytesWan),
			stats.Pct(row.ConnsEnt), stats.Pct(row.ConnsWan))
	}
	b.WriteString(f1.String() + "\n")

	fmt.Fprintf(&b, "Origins (§4): ent-ent %s, ent→wan %s, wan→ent %s, mcast-int %s, mcast-ext %s\n",
		stats.Pct(r.Origins["ent-ent"]), stats.Pct(r.Origins["ent-wan"]),
		stats.Pct(r.Origins["wan-ent"]), stats.Pct(r.Origins["multicast-internal"]),
		stats.Pct(r.Origins["multicast-external"]))
	fmt.Fprintf(&b, "Figure 2: hosts=%d, internal-only fan-in %s, internal-only fan-out %s\n\n",
		r.Figure2.Hosts, stats.Pct(r.Figure2.OnlyInternalFanIn), stats.Pct(r.Figure2.OnlyInternalFanOut))

	if r.HTTP.InternalRequests > 0 {
		t6 := stats.NewTable("Table 6: automated clients, share of internal HTTP",
			"client", "requests", "data")
		for _, k := range sortedKeys(r.HTTP.Automated) {
			v := r.HTTP.Automated[k]
			t6.AddRow(k, stats.Pct(v.ReqFrac), stats.Pct(v.ByteFrac))
		}
		b.WriteString(t6.String() + "\n")
		fmt.Fprintf(&b, "HTTP fan-out (Fig 3): median ent %.0f (N=%d) vs wan %.0f (N=%d) servers/client\n",
			cdfMedian(r.HTTP.FanOutEnt), r.HTTP.NEntClients, cdfMedian(r.HTTP.FanOutWan), r.HTTP.NWanClients)
		fmt.Fprintf(&b, "HTTP conn success by pair: ent %s (n=%d) vs wan %s (n=%d)\n",
			stats.Pct(r.HTTP.SuccessEnt), r.HTTP.PairsEnt, stats.Pct(r.HTTP.SuccessWan), r.HTTP.PairsWan)
		fmt.Fprintf(&b, "Conditional GETs: ent %s of requests (%s of bytes) vs wan %s (%s)\n",
			stats.Pct(r.HTTP.CondEnt), stats.Pct(r.HTTP.CondBytesEnt),
			stats.Pct(r.HTTP.CondWan), stats.Pct(r.HTTP.CondBytesWan))
		t7 := stats.NewTable("Table 7: HTTP reply content classes",
			"class", "req ent", "req wan", "bytes ent", "bytes wan")
		for _, cls := range []string{"text", "image", "application", "other"} {
			t7.AddRow(cls,
				stats.Pct(r.HTTP.ContentReqEnt[cls]), stats.Pct(r.HTTP.ContentReqWan[cls]),
				stats.Pct(r.HTTP.ContentByteEnt[cls]), stats.Pct(r.HTTP.ContentByteWan[cls]))
		}
		b.WriteString(t7.String())
		fmt.Fprintf(&b, "Figure 4: median reply size ent %.0fB wan %.0fB; GET %s of requests; request success %s\n\n",
			cdfMedian(r.HTTP.ReplySizeEnt), cdfMedian(r.HTTP.ReplySizeWan),
			stats.Pct(r.HTTP.GETFrac), stats.Pct(r.HTTP.RequestSuccess))
	}

	t8 := stats.NewTable("Table 8: email bytes", "proto", "bytes")
	for _, k := range []string{"SMTP", "SIMAP", "IMAP4", "Other"} {
		t8.AddRow(k, stats.Bytes(r.Email.Bytes[k]))
	}
	b.WriteString(t8.String())
	fmt.Fprintf(&b, "Figure 5: SMTP median duration ent %.3fs wan %.3fs; IMAP/S ent %.1fs wan %.1fs\n",
		r.Email.MedianSMTPDurEnt, r.Email.MedianSMTPDurWan,
		r.Email.MedianIMAPSDurEnt, r.Email.MedianIMAPSDurWan)
	fmt.Fprintf(&b, "SMTP success: ent %s wan %s; IMAP/S success %s\n\n",
		stats.Pct(r.Email.SMTPSuccessEnt), stats.Pct(r.Email.SMTPSuccessWan), stats.Pct(r.Email.IMAPSSuccess))

	fmt.Fprintf(&b, "Name services (§5.1.3):\n")
	fmt.Fprintf(&b, "  DNS median latency: internal %.2fms, wan %.1fms\n",
		r.Names.DNSMedianLatencyEntMs, r.Names.DNSMedianLatencyWanMs)
	fmt.Fprintf(&b, "  DNS types: A %s AAAA %s PTR %s MX %s\n",
		stats.Pct(r.Names.DNSTypes["A"]), stats.Pct(r.Names.DNSTypes["AAAA"]),
		stats.Pct(r.Names.DNSTypes["PTR"]), stats.Pct(r.Names.DNSTypes["MX"]))
	fmt.Fprintf(&b, "  DNS rcodes: NOERROR %s NXDOMAIN %s | Netbios/NS failure %s\n",
		stats.Pct(r.Names.DNSRcodes["NOERROR"]), stats.Pct(r.Names.DNSRcodes["NXDOMAIN"]),
		stats.Pct(r.Names.NBNSFailureRate))
	fmt.Fprintf(&b, "  NBNS ops: query %s refresh %s; name types: wkst/srv %s dom/browser %s\n",
		stats.Pct(r.Names.NBNSOps["query"]), stats.Pct(r.Names.NBNSOps["refresh"]),
		stats.Pct(r.Names.NBNSNameTypes["workstation/server"]), stats.Pct(r.Names.NBNSNameTypes["domain/browser"]))
	fmt.Fprintf(&b, "  top-10 clients: DNS %s of requests, NBNS %s\n\n",
		stats.Pct(r.Names.DNSTop10ClientShare), stats.Pct(r.Names.NBNSTop10ClientShare))

	t9 := stats.NewTable("Table 9: Windows connection outcomes by host pair",
		"service", "pairs", "successful", "rejected", "unanswered")
	for _, svc := range []string{"Netbios/SSN", "CIFS", "Endpoint Mapper"} {
		o := r.Windows.Table9[svc]
		t9.AddRow(svc, fmt.Sprint(o.Pairs), stats.Pct(o.Success), stats.Pct(o.Rejected), stats.Pct(o.Unanswered))
	}
	b.WriteString(t9.String())
	if r.Windows.CIFSTotalRequests > 0 {
		fmt.Fprintf(&b, "Netbios/SSN handshake success: %s\n", stats.Pct(r.Windows.SSNHandshakeSuccess))
		t10 := stats.NewTable("Table 10: CIFS command mix", "category", "requests", "data")
		for _, k := range []string{"SMB Basic", "RPC Pipes", "Windows File Sharing", "LANMAN", "Other"} {
			t10.AddRow(k, stats.Pct(r.Windows.CIFSRequests[k]), stats.Pct(r.Windows.CIFSBytes[k]))
		}
		b.WriteString(t10.String())
		t11 := stats.NewTable("Table 11: DCE/RPC function mix", "function", "requests", "data")
		for _, k := range []string{"NetLogon", "LsaRPC", "Spoolss/WritePrinter", "Spoolss/other", "EPM", "Other"} {
			t11.AddRow(k, stats.Pct(r.Windows.RPCRequests[k]), stats.Pct(r.Windows.RPCBytes[k]))
		}
		b.WriteString(t11.String() + "\n")
	}

	if r.FileSvc.NFSRequests > 0 {
		t13 := stats.NewTable("Table 13: NFS request mix", "request", "share", "data share")
		for _, k := range []string{"Read", "Write", "GetAttr", "LookUp", "Access", "Other"} {
			t13.AddRow(k, stats.Pct(r.FileSvc.NFSRequestMix[k]), stats.Pct(r.FileSvc.NFSByteMix[k]))
		}
		b.WriteString(t13.String())
		t14 := stats.NewTable("Table 14: NCP request mix", "request", "share", "data share")
		for _, k := range []string{"Read", "Write", "FileDirInfo", "File Open/Close", "File Size", "File Search", "Directory Service", "Other"} {
			t14.AddRow(k, stats.Pct(r.FileSvc.NCPRequestMix[k]), stats.Pct(r.FileSvc.NCPByteMix[k]))
		}
		b.WriteString(t14.String())
		fmt.Fprintf(&b, "NFS: %d requests, success %s, UDP pairs %d vs TCP %d, top-3 pair share %s\n",
			r.FileSvc.NFSRequests, stats.Pct(r.FileSvc.NFSSuccess),
			r.FileSvc.NFSUDPPairs, r.FileSvc.NFSTCPPairs, stats.Pct(r.FileSvc.NFSTop3Share))
		fmt.Fprintf(&b, "NCP: %d requests, success %s, keep-alive-only conns %s, top-3 pair share %s\n",
			r.FileSvc.NCPRequests, stats.Pct(r.FileSvc.NCPSuccess),
			stats.Pct(r.FileSvc.NCPKeepAliveOnlyFrac), stats.Pct(r.FileSvc.NCPTop3Share))
		fmt.Fprintf(&b, "Figure 8 medians: NFS req %.0fB reply %.0fB; NCP req %.0fB reply %.0fB\n\n",
			cdfMedian(r.FileSvc.NFSReqSizes), cdfMedian(r.FileSvc.NFSReplySizes),
			cdfMedian(r.FileSvc.NCPReqSizes), cdfMedian(r.FileSvc.NCPReplySizes))
	}

	if r.Interactive.SSHConns > 0 {
		fmt.Fprintf(&b, "Interactive: %d SSH conns, %s bulk (≥200KB), mean payload/pkt %.0fB\n",
			r.Interactive.SSHConns, stats.Pct(r.Interactive.SSHBulkFrac), r.Interactive.MeanSSHPayloadPerPkt)
	}
	if r.Bulk.FTPSessions > 0 {
		fmt.Fprintf(&b, "Bulk: %d FTP sessions (%d transfers, login %s), %d data conns carrying %s; HPSS %s\n\n",
			r.Bulk.FTPSessions, r.Bulk.FTPTransfers, stats.Pct(r.Bulk.FTPLoginRate),
			r.Bulk.FTPDataConns, stats.Bytes(r.Bulk.FTPDataBytes), stats.Bytes(r.Bulk.HPSSBytes))
	}

	t15 := stats.NewTable("Table 15: backup applications", "app", "conns", "bytes")
	for _, k := range []string{"VERITAS-BACKUP-CTRL", "VERITAS-BACKUP-DATA", "DANTZ", "CONNECTED-BACKUP"} {
		t15.AddRow(k, fmt.Sprint(r.Backup.Conns[k]), stats.Bytes(r.Backup.Bytes[k]))
	}
	b.WriteString(t15.String())
	fmt.Fprintf(&b, "Dantz bidirectional (≥100KB each way): %s of connections\n\n", stats.Pct(r.Backup.DantzBidirFrac))

	fmt.Fprintf(&b, "Load (§6, Figures 9–10):\n")
	fmt.Fprintf(&b, "  peak 1s utilization across traces: median %.2f Mbps, max %.1f Mbps\n",
		cdfMedian(r.Load.Peak1s), cdfMax(r.Load.Peak1s))
	fmt.Fprintf(&b, "  peak 60s: median %.2f Mbps; typical per-second median %.3f Mbps\n",
		cdfMedian(r.Load.Peak60s), r.Load.MedianOfMedians)
	fmt.Fprintf(&b, "  retransmission: max internal %.1f%%; traces >1%%: ent %s, wan %s\n\n",
		r.Load.MaxRetransEnt*100, stats.Pct(r.Load.EntOver1Pct), stats.Pct(r.Load.WanOver1Pct))

	if r.Load.MedianHurst > 0 {
		fmt.Fprintf(&b, "Self-similarity (extension): median per-trace Hurst estimate %.2f\n", r.Load.MedianHurst)
	}
	h := r.Hostile
	fmt.Fprintf(&b, "Hostile-input census (extension):\n")
	fmt.Fprintf(&b, "  reassembly: %s ingested over %d streams; delivered %s, duplicate %s (%s), conflicting overlap %s (%s), discarded %s\n",
		stats.Bytes(h.IngestBytes), h.Streams, stats.Bytes(h.DeliveredBytes),
		stats.Bytes(h.DuplicateBytes), stats.Pct(h.DuplicateFrac),
		stats.Bytes(h.ConflictBytes), stats.Pct(h.ConflictFrac), stats.Bytes(h.DiscardedBytes))
	fmt.Fprintf(&b, "  gaps: %d events skipping %s (%s of stream space); seq wraps %d; peak pending %s\n",
		h.GapEvents, stats.Bytes(h.GapSkippedBytes), stats.Pct(h.GapFrac), h.WrapEvents, stats.Bytes(h.PeakPendingBytes))
	fmt.Fprintf(&b, "  bogus RSTs %d; data-after-RST segments %d; undecodable frames %d\n\n",
		h.BogusRSTs, h.PostRSTDataSegments, h.UndecodableFrames)
	if se := r.SourceErrors; se.Errors > 0 || se.AgedOutConns > 0 || se.CapEvictedConns > 0 {
		fmt.Fprintf(&b, "Degraded-run census (extension):\n")
		if se.Errors > 0 {
			fmt.Fprintf(&b, "  source errors: %d skipped, %s lost", se.Errors, stats.Bytes(se.LostBytes))
			for _, k := range sortedKeys(se.ByKind) {
				fmt.Fprintf(&b, "; %s %d", k, se.ByKind[k])
			}
			b.WriteString("\n")
			for _, t := range se.Traces {
				term := ""
				if t.Terminal {
					term = " (trace ended early)"
				}
				fmt.Fprintf(&b, "    %s: %d errors, %s lost, offsets %d..%d%s\n",
					t.Trace, t.Errors, stats.Bytes(t.LostBytes), t.FirstIndex, t.LastIndex, term)
			}
		}
		if se.AgedOutConns > 0 || se.CapEvictedConns > 0 {
			fmt.Fprintf(&b, "  conn-table: aged out %d (idle past horizon), cap-evicted %d\n",
				se.AgedOutConns, se.CapEvictedConns)
		}
		b.WriteString("\n")
	}
	b.WriteString("Table 5: example findings (computed)\n")
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  - %s\n", f)
	}
	return b.String()
}

// RenderWindowSummary renders the windowed activity overview the CLIs
// print ahead of the cumulative report: one line per window with its
// traffic volume and dominant category — the time-of-day variation the
// paper calls out, at a glance.
func RenderWindowSummary(windows []*WindowReport) string {
	if len(windows) == 0 {
		return ""
	}
	var b strings.Builder
	t := stats.NewTable("Windowed activity", "window", "start", "conns", "payload", "top category")
	for _, wr := range windows {
		top, topShare := "-", 0.0
		for _, row := range wr.Report.Figure1 {
			if s := row.BytesTotal(); s > topShare {
				top, topShare = row.Category, s
			}
		}
		if topShare > 0 {
			top = fmt.Sprintf("%s (%s)", top, stats.Pct(topShare))
		}
		t.AddRow(fmt.Sprint(wr.Index),
			wr.Start.UTC().Format("15:04:05"),
			fmt.Sprint(wr.Report.Table3.TotalConns),
			stats.Bytes(wr.Report.Table3.TotalBytes),
			top)
	}
	b.WriteString(t.String())
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func cdfMedian(pts []stats.CDFPoint) float64 {
	for _, p := range pts {
		if p.F >= 0.5 {
			return p.X
		}
	}
	if len(pts) > 0 {
		return pts[len(pts)-1].X
	}
	return 0
}

func cdfMax(pts []stats.CDFPoint) float64 {
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].X
}
