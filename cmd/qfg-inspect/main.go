// Command qfg-inspect builds, inspects and packs Query Fragment Graphs.
//
// With no subcommand it mines a SQL log and prints the most frequent
// fragments and strongest co-occurrences — a direct view of the Figure 3
// construction in the paper:
//
//	qfg-inspect -log queries.sql                 # top fragments
//	qfg-inspect -log queries.sql -top 20
//	qfg-inspect -log queries.sql -fragment 'publication.title' -context SELECT
//	qfg-inspect -dataset mas                     # use a benchmark's gold SQL as the log
//	echo "SELECT j.name FROM journal j" | qfg-inspect
//
// The pack, unpack and info subcommands work the versioned snapshot store
// codec (internal/store) that templar-serve cold-starts from:
//
//	qfg-inspect pack -dataset mas -o mas.qfg     # mine + compile + pack
//	qfg-inspect pack -log queries.sql -o log.qfg
//	qfg-inspect info mas.qfg                     # header + stats, no dump
//	qfg-inspect unpack mas.qfg                   # dump the fragment table
//	qfg-inspect unpack -top 20 mas.qfg
//
// The wal subcommand verifies and dumps a per-tenant write-ahead log
// segment (internal/wal) offline — the operator's view of what a crashed
// server will recover:
//
//	qfg-inspect wal mas.wal                      # header, record count, tail verdict
//	qfg-inspect wal -dump mas.wal                # every record with its queries
//
// Log lines may carry a "Nx:" repetition prefix as in the paper's Figure 3a.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"templar/internal/datasets"
	"templar/internal/fragment"
	"templar/internal/qfg"
	"templar/internal/sqlparse"
	"templar/internal/store"
	"templar/internal/wal"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "pack":
			runPack(os.Args[2:])
			return
		case "unpack":
			runUnpack(os.Args[2:])
			return
		case "info":
			runInfo(os.Args[2:])
			return
		case "wal":
			runWal(os.Args[2:])
			return
		}
	}
	runInspect(os.Args[1:])
}

func runInspect(args []string) {
	fs := flag.NewFlagSet("qfg-inspect", flag.ExitOnError)
	var (
		logPath   = fs.String("log", "", "path to a SQL log file ('-' or empty reads stdin)")
		dataset   = fs.String("dataset", "", "use a benchmark's gold SQL as the log (mas, yelp, imdb)")
		obscurity = fs.String("obscurity", "NoConstOp", "obscurity level (Full, NoConst, NoConstOp)")
		top       = fs.Int("top", 15, "number of fragments to list")
		frag      = fs.String("fragment", "", "show co-occurrence neighbors of this fragment expression")
		context   = fs.String("context", "SELECT", "clause context of -fragment (SELECT, FROM, WHERE)")
	)
	fs.Parse(args)

	g, _, err := mineLog(*dataset, *logPath, *obscurity)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("QFG at %s: %d queries, %d fragments, %d co-occurrence edges\n\n",
		g.Obscurity(), g.Queries(), g.Vertices(), g.Edges())

	if *frag != "" {
		ctx, err := parseContext(*context)
		if err != nil {
			fatal(err)
		}
		f := fragment.Fragment{Context: ctx, Expr: *frag}
		fmt.Printf("nv%v = %d\n", f, g.Occurrences(f))
		fmt.Println("Neighbors by Dice:")
		for i, nb := range g.Neighbors(f) {
			if i >= *top {
				break
			}
			fmt.Printf("  %-50s ne=%-5d Dice=%.3f\n", nb.Fragment, nb.Count, nb.Dice)
		}
		return
	}
	fmt.Println("Most frequent fragments:")
	for _, e := range g.Top(*top) {
		fmt.Printf("  %5dx %s\n", e.Count, e.Fragment)
	}
}

// runPack mines a log (or benchmark) and writes a packed snapshot archive.
func runPack(args []string) {
	fs := flag.NewFlagSet("qfg-inspect pack", flag.ExitOnError)
	var (
		logPath   = fs.String("log", "", "path to a SQL log file ('-' or empty reads stdin)")
		dataset   = fs.String("dataset", "", "use a benchmark's gold SQL as the log (mas, yelp, imdb)")
		obscurity = fs.String("obscurity", "NoConstOp", "obscurity level (Full, NoConst, NoConstOp)")
		out       = fs.String("o", "", "output file (default <dataset>.qfg)")
		name      = fs.String("name", "", "dataset name recorded in the archive (default: -dataset, or 'log')")
	)
	fs.Parse(args)

	snap, dsName, err := mineLog(*dataset, *logPath, *obscurity)
	if err != nil {
		fatal(err)
	}
	if *name != "" {
		dsName = *name
	}
	if dsName == "" {
		dsName = "log"
	}
	path := *out
	if path == "" {
		path = store.Filename(dsName)
	}
	if err := store.WriteFile(path, dsName, snap); err != nil {
		fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("packed %s: %d queries, %d fragments, %d edges at %s → %s (%d bytes)\n",
		dsName, snap.Queries(), snap.Vertices(), snap.Edges(), snap.Obscurity(), path, st.Size())
}

// runInfo prints a packed archive's header and stats without dumping it.
func runInfo(args []string) {
	fs := flag.NewFlagSet("qfg-inspect info", flag.ExitOnError)
	fs.Parse(args)
	path, ar := readArchive(fs)
	st, err := os.Stat(path)
	if err != nil {
		fatal(err)
	}
	snap := ar.Snapshot
	fmt.Printf("%s: packed QFG snapshot (format v%d, %d bytes)\n", path, store.Version, st.Size())
	fmt.Printf("  dataset:   %s\n", ar.Dataset)
	fmt.Printf("  obscurity: %s\n", snap.Obscurity())
	fmt.Printf("  queries:   %d\n", snap.Queries())
	fmt.Printf("  fragments: %d interned (%d in snapshot)\n", snap.Interner().Len(), snap.Vertices())
	fmt.Printf("  edges:     %d\n", snap.Edges())
	fmt.Printf("  wal seq:   %d\n", ar.WalSeq)

	// v3+ archives carry a fixed-layout section table: print it so an
	// operator can see exactly which byte ranges are served zero-copy from
	// the mapping. Older varint archives have no sections.
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	secs, err := store.Sections(data)
	if err != nil {
		fatal(err)
	}
	if secs == nil {
		fmt.Printf("  layout:    varint (pre-v3, decoded by copy)\n")
		return
	}
	fmt.Printf("  layout:    fixed-width (v3+), %d sections (8-byte aligned, zero-copy mappable)\n", len(secs))
	for _, s := range secs {
		fmt.Printf("    %-10s off=%-8d len=%d\n", s.Name, s.Off, s.Len)
	}
}

// runWal verifies a write-ahead log segment offline and reports exactly
// what a recovering server would keep: the records up to the last valid
// one, plus the typed verdict on any damaged tail.
func runWal(args []string) {
	fs := flag.NewFlagSet("qfg-inspect wal", flag.ExitOnError)
	dump := fs.Bool("dump", false, "dump every record's queries, not just the summary")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("want exactly one .wal file argument, got %d", fs.NArg()))
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	res, err := wal.Scan(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	fmt.Printf("%s: write-ahead log segment (format v%d, %d bytes)\n", path, wal.Version, len(data))
	fmt.Printf("  dataset:  %s\n", res.Dataset)
	fmt.Printf("  base seq: %d\n", res.BaseSeq)
	if len(res.Records) == 0 {
		fmt.Printf("  records:  0 (next append is seq %d)\n", res.BaseSeq+1)
	} else {
		fmt.Printf("  records:  %d (seq %d..%d)\n", len(res.Records), res.BaseSeq+1, res.LastSeq())
	}
	switch {
	case res.TailErr == nil:
		fmt.Printf("  tail:     clean\n")
	default:
		fmt.Printf("  tail:     %d byte(s) past offset %d unrecoverable: %v\n",
			len(data)-res.ValidLen, res.ValidLen, res.TailErr)
		fmt.Printf("            recovery keeps the %d record(s) above and truncates the rest\n", len(res.Records))
	}
	if !*dump {
		return
	}
	for _, r := range res.Records {
		kind := "batch"
		if r.Session {
			kind = fmt.Sprintf("session count=%d decay=%g", r.Count, r.Decay)
		}
		fmt.Printf("  seq %d: %s, %d quer%s\n", r.Seq, kind, len(r.Entries), plural(len(r.Entries), "y", "ies"))
		for _, e := range r.Entries {
			if r.Session {
				fmt.Printf("    %s\n", e.SQL)
			} else {
				fmt.Printf("    %dx %s\n", e.Count, e.SQL)
			}
		}
	}
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// runUnpack dumps a packed archive's fragment table in ID order.
func runUnpack(args []string) {
	fs := flag.NewFlagSet("qfg-inspect unpack", flag.ExitOnError)
	top := fs.Int("top", 0, "only dump the N most frequent fragments (0 = all, in ID order)")
	fs.Parse(args)
	path, ar := readArchive(fs)
	snap := ar.Snapshot
	fmt.Printf("%s: dataset=%s %s, %d queries, %d fragments, %d edges\n",
		path, ar.Dataset, snap.Obscurity(), snap.Queries(), snap.Vertices(), snap.Edges())
	if *top > 0 {
		for _, e := range snap.Top(*top) {
			fmt.Printf("  %5dx %s\n", e.Count, e.Fragment)
		}
		return
	}
	frags := snap.Interner().Fragments()
	for id, f := range frags {
		fmt.Printf("  %6d  nv=%-5d %s\n", id, snap.OccurrencesID(uint32(id)), f)
	}
}

// readArchive loads the positional archive argument of a subcommand.
func readArchive(fs *flag.FlagSet) (string, *store.Archive) {
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("want exactly one archive file argument, got %d", fs.NArg()))
	}
	path := fs.Arg(0)
	ar, err := store.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return path, ar
}

// mineLog builds a QFG from a benchmark's gold SQL or a log file/stdin,
// returning the dataset display name when one was used.
func mineLog(dataset, logPath, obscurity string) (*qfg.Snapshot, string, error) {
	ob, err := parseObscurity(obscurity)
	if err != nil {
		return nil, "", err
	}
	var logText, name string
	switch {
	case dataset != "":
		ds, ok := datasets.ByName(dataset)
		if !ok {
			return nil, "", fmt.Errorf("unknown dataset %q", dataset)
		}
		name = ds.Name
		var b strings.Builder
		for _, t := range ds.Tasks {
			b.WriteString(t.Gold)
			b.WriteByte('\n')
		}
		logText = b.String()
	case logPath == "" || logPath == "-":
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, "", err
		}
		logText = string(data)
	default:
		data, err := os.ReadFile(logPath)
		if err != nil {
			return nil, "", err
		}
		logText = string(data)
	}
	entries, err := sqlparse.ParseLog(logText)
	if err != nil {
		return nil, "", err
	}
	s, err := qfg.Build(entries, ob)
	if err != nil {
		return nil, "", err
	}
	return s, name, nil
}

func parseObscurity(s string) (fragment.Obscurity, error) {
	for _, ob := range fragment.Levels() {
		if strings.EqualFold(ob.String(), s) {
			return ob, nil
		}
	}
	return 0, fmt.Errorf("unknown obscurity %q", s)
}

func parseContext(s string) (fragment.Context, error) {
	switch strings.ToUpper(s) {
	case "SELECT":
		return fragment.Select, nil
	case "FROM":
		return fragment.From, nil
	case "WHERE":
		return fragment.Where, nil
	case "GROUP BY", "GROUPBY":
		return fragment.GroupBy, nil
	case "ORDER BY", "ORDERBY":
		return fragment.OrderBy, nil
	default:
		return 0, fmt.Errorf("unknown context %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qfg-inspect:", err)
	os.Exit(1)
}
