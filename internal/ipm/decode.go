package ipm

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"
)

// This file is the one reader of the XML profiling log. Two tokenizers
// feed one decoder:
//
//   - the zero-copy byte scanner (scan.go), the fast path, which handles
//     only the clean core grammar and bails on anything else;
//   - encoding/xml's token stream, non-strict for salvage, strict for
//     ParseXML.
//
// The decoder holds everything else: the element state machine, the
// salvage warnings, the skipped-subtree suppression and the only
// attribute switch. DecodeXML runs the scanner and, if it bails,
// replays the bytes through the non-strict token walk into the same
// sink, so the scanner's verdict is ipm's alone. Adding a profile
// attribute means one writer struct field (xml.go), one case in
// decoder.attr and its use in each sink.

// ParseReport describes what the tolerant decode recovered from a
// damaged log and what it had to guess at.
type ParseReport struct {
	Warnings       []string
	Truncated      bool // input ended mid-document
	TasksRecovered int
	TasksDeclared  int // ntasks attribute, 0 if never seen
}

func (pr *ParseReport) warnf(format string, args ...any) {
	pr.Warnings = append(pr.Warnings, fmt.Sprintf(format, args...))
}

// reset clears the report, keeping the warning slice's capacity.
func (pr *ParseReport) reset() { *pr = ParseReport{Warnings: pr.Warnings[:0]} }

// ScanHeader carries the ipm_log root attributes. Byte-slice fields
// alias the decoder's input and are only valid during the callback.
type ScanHeader struct {
	Version   []byte
	Command   []byte
	Start     []byte
	Stop      []byte
	NTasks    int
	NHosts    int
	Wallclock float64
}

// ScanTask carries one task element's attributes, durations and energy
// already converted from their XML seconds and joules.
type ScanTask struct {
	Rank          int
	Host          []byte
	Wallclock     time.Duration
	LoadFactor    float64
	Overflow      int
	Probes        uint64
	Errors        int64
	SubmitStall   time.Duration
	Energy        int64 // nanojoules
	Device        []byte
	MonitorErrors int64
	Lost          bool
	LostAt        time.Duration
	LostReason    []byte
}

// ScanEntry is one func element inside a region: one hash-table entry.
type ScanEntry struct {
	Region      []byte // enclosing region's name attribute, "" if absent
	Name        []byte
	Bytes       int64
	Count       int64
	Total       time.Duration
	Min         time.Duration
	Max         time.Duration
	Errors      int64
	Submits     int64
	SubmitStall time.Duration
	Energy      int64 // nanojoules
}

// ScanSink receives the event stream of one document. Slices passed in
// alias the input; copy anything that must outlive the callback.
// TaskEnd fires exactly once per recovered task (including tasks closed
// implicitly by an interleaved <task> or by the end of the log), after
// its entries. Reset discards every event delivered so far: DecodeXML
// calls it before each tokenizer's pass.
type ScanSink interface {
	Reset()
	Header(*ScanHeader)
	TaskStart(*ScanTask)
	Entry(*ScanEntry)
	TaskEnd()
}

// DecodeXML streams one IPM XML log into sink, tolerating truncation
// and attribute corruption; every concession made is listed in rep.
// The byte scanner runs first; if it strays off its grammar, its
// partial events and warnings are discarded and the encoding/xml token
// walk decodes the same bytes. The error is non-nil only when no
// ipm_log root element was found.
//
// rep's Warnings backing array is reused, so a recycled report costs
// no allocation.
func DecodeXML(data []byte, sink ScanSink, rep *ParseReport) error {
	s := scanner{data: data}
	s.init(sink, rep)
	if !s.run() {
		s.decoder = decoder{}
		s.walk(data, sink, rep)
	}
	return s.finish()
}

// walk runs the non-strict encoding/xml token walk alone.
func (d *decoder) walk(data []byte, sink ScanSink, rep *ParseReport) {
	d.init(sink, rep)
	dec := xml.NewDecoder(bytes.NewReader(data))
	// Non-strict: unclosed elements get invented end tags instead of
	// failing the whole document — a rank that died before writing its
	// closing tags is the expected case here, not an anomaly.
	dec.Strict = false
	d.tokens(dec)
}

// ParseXMLTolerant decodes an IPM XML log in salvage mode (DecodeXML):
// a crashed or killed job writes exactly the kind of log a strict
// parser refuses, and a post-mortem tool that refuses it is useless at
// the one moment it matters. The profile's ExpectedRanks is set from
// the ntasks attribute, so downstream consumers see the run as partial
// rather than small.
func ParseXMLTolerant(data []byte) (*JobProfile, *ParseReport, error) {
	var p profileSink
	rep := &ParseReport{}
	if err := DecodeXML(data, &p, rep); err != nil {
		return nil, rep, err
	}
	return p.profile(), rep, nil
}

// ParseXML reads an IPM XML log strictly: the same decoder over a strict
// encoding/xml token stream. It reads only the first element, which
// must be ipm_log, and rejects any syntax error and any salvage
// concession except a declared ntasks above the tasks present, which
// sets ExpectedRanks.
func ParseXML(r io.Reader) (*JobProfile, error) {
	var p profileSink
	var rep ParseReport
	var d decoder
	d.init(&p, &rep)
	err := d.tokens(xml.NewDecoder(r))
	if err == nil && len(rep.Warnings) > 0 {
		err = errors.New(rep.Warnings[0])
	}
	if err == nil {
		err = d.finish()
	}
	if err != nil {
		return nil, fmt.Errorf("ipm: parsing XML log: %w", err)
	}
	return p.profile(), nil
}

// element kinds dispatched by name.
const (
	elOther = iota
	elRoot
	elTask
	elRegion
	elFunc
)

// decoder applies the tolerant salvage state machine to the elements a
// tokenizer reports: start(name), attr(name, value) for each attribute,
// open() once the tag is complete, and end(name) when it closes (a
// self-closing tag reports open and end back to back).
type decoder struct {
	sink ScanSink
	rep  *ParseReport

	// depth counts open elements. skipFrom is the depth of the outermost
	// element of a skipped subtree (task before the root, region outside
	// a task), 0 when not skipping: while depth >= skipFrom > 0 elements
	// produce no warnings or events.
	depth    int
	skipFrom int

	kind     int // kind of the element being started
	seenRoot bool
	inTask   bool
	inRegion bool
	tasks    int
	ntasks   int

	hdr        ScanHeader
	task       ScanTask
	entry      ScanEntry
	regionName []byte
}

// init starts a pass: the sink and report forget any earlier pass.
func (d *decoder) init(sink ScanSink, rep *ParseReport) {
	d.sink, d.rep = sink, rep
	rep.reset()
	sink.Reset()
}

// tokens drives d from dec. A strict decoder reads only the first
// element, which must be ipm_log, and its first error is returned; a
// non-strict one reads to EOF and a syntax error ends the walk as a
// salvage concession, keeping everything decoded so far.
func (d *decoder) tokens(dec *xml.Decoder) error {
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			if dec.Strict {
				return err
			}
			// Inside a skipped subtree the error only marks the log
			// truncated: like the subtree itself, it goes unreported.
			d.rep.Truncated = true
			if d.skipFrom == 0 {
				d.rep.warnf("log truncated or corrupt: %v", err)
			}
			return nil
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if dec.Strict && d.depth == 0 && t.Name.Local != "ipm_log" {
				return fmt.Errorf("unexpected root element %q", t.Name.Local)
			}
			d.start([]byte(t.Name.Local))
			for _, a := range t.Attr {
				d.attr([]byte(a.Name.Local), []byte(a.Value))
			}
			d.open()
		case xml.EndElement:
			d.end([]byte(t.Name.Local))
			if dec.Strict && d.depth == 0 {
				return nil
			}
		}
	}
}

// finish closes the document: the report's task counts and the
// end-of-log concessions.
func (d *decoder) finish() error {
	if !d.seenRoot {
		return fmt.Errorf("ipm: no ipm_log root element found")
	}
	if d.inTask {
		d.rep.Truncated = true
		d.rep.warnf("log ends inside task (rank %d), kept partial", d.task.Rank)
		d.finishTask()
	}
	d.rep.TasksRecovered = d.tasks
	d.rep.TasksDeclared = d.ntasks
	if d.ntasks > d.tasks {
		d.rep.warnf("log declares %d task(s) but only %d recovered", d.ntasks, d.tasks)
	}
	return nil
}

// start applies an element's StartElement semantics before its
// attributes.
func (d *decoder) start(name []byte) {
	d.depth++
	d.kind = elOther
	if d.skipFrom > 0 {
		return
	}
	switch string(name) {
	case "ipm_log":
		if d.seenRoot {
			d.rep.warnf("nested ipm_log element ignored")
		} else {
			d.seenRoot = true
			d.kind = elRoot
			d.hdr = ScanHeader{}
		}
	case "task":
		if !d.seenRoot {
			d.rep.warnf("task element before ipm_log root, skipped")
			d.skipFrom = d.depth
		} else {
			if d.inTask {
				d.rep.warnf("task (rank %d) not closed before next task, kept partial", d.task.Rank)
				d.finishTask()
			}
			d.kind = elTask
			d.task = ScanTask{}
		}
	case "region":
		if !d.inTask {
			d.rep.warnf("region element outside task, skipped")
			d.skipFrom = d.depth
		} else {
			d.kind = elRegion
			d.regionName = nil
		}
	case "func":
		if d.inRegion {
			d.kind = elFunc
			d.entry = ScanEntry{}
		} else {
			// Warned but not skipped: children are still processed.
			d.rep.warnf("func element outside region, skipped")
		}
	}
}

// open applies the post-attribute StartElement semantics.
func (d *decoder) open() {
	switch d.kind {
	case elRoot:
		d.ntasks = d.hdr.NTasks
		d.sink.Header(&d.hdr)
	case elTask:
		d.inTask = true
		d.inRegion = false
		d.regionName = nil
		d.sink.TaskStart(&d.task)
	case elRegion:
		d.inRegion = true
	case elFunc:
		d.entry.Region = d.regionName
		d.sink.Entry(&d.entry)
	}
}

// end applies an element's EndElement semantics.
func (d *decoder) end(name []byte) {
	d.depth--
	if d.skipFrom > 0 {
		if d.depth < d.skipFrom {
			d.skipFrom = 0 // closed the skipped subtree's own element
		}
		return
	}
	switch string(name) {
	case "task":
		d.finishTask()
	case "region":
		d.inRegion = false
		d.regionName = nil
	}
}

func (d *decoder) finishTask() {
	if d.inTask {
		d.tasks++
		d.inTask = false
		d.inRegion = false
		d.regionName = nil
		d.sink.TaskEnd()
	}
}

// attr applies one attribute to the element being started: unknown
// names are ignored, repeated names overwrite, and numeric corruption
// warns and yields zero. This is the only place an XML attribute name
// maps to a profile field.
func (d *decoder) attr(name, val []byte) {
	switch d.kind {
	case elRoot:
		switch string(name) {
		case "version":
			d.hdr.Version = val
		case "command":
			d.hdr.Command = val
		case "ntasks":
			d.hdr.NTasks = int(d.intAttr(name, val))
		case "nhosts":
			d.hdr.NHosts = int(d.intAttr(name, val))
		case "start":
			d.hdr.Start = val
		case "stop":
			d.hdr.Stop = val
		case "wallclock":
			d.hdr.Wallclock = d.floatAttr(name, val)
		}
	case elTask:
		switch string(name) {
		case "mpi_rank":
			d.task.Rank = int(d.intAttr(name, val))
		case "host":
			d.task.Host = val
		case "wallclock":
			d.task.Wallclock = secsToDuration(d.floatAttr(name, val))
		case "hashtable_load":
			d.task.LoadFactor = d.floatAttr(name, val)
		case "hashtable_overflow":
			d.task.Overflow = int(d.intAttr(name, val))
		case "hashtable_probes":
			d.task.Probes = uint64(d.intAttr(name, val))
		case "error_total":
			d.task.Errors = d.intAttr(name, val)
		case "submit_stall_total":
			d.task.SubmitStall = secsToDuration(d.floatAttr(name, val))
		case "energy_total":
			d.task.Energy = joulesToEnergy(d.floatAttr(name, val))
		case "device":
			d.task.Device = val
		case "monitor_errors":
			d.task.MonitorErrors = d.intAttr(name, val)
		case "status":
			d.task.Lost = string(val) == "lost"
		case "lost_at":
			d.task.LostAt = secsToDuration(d.floatAttr(name, val))
		case "lost_reason":
			d.task.LostReason = val
		}
	case elRegion:
		if string(name) == "name" {
			d.regionName = val
		}
	case elFunc:
		switch string(name) {
		case "name":
			d.entry.Name = val
		case "bytes":
			d.entry.Bytes = d.intAttr(name, val)
		case "count":
			d.entry.Count = d.intAttr(name, val)
		case "ttot":
			d.entry.Total = secsToDuration(d.floatAttr(name, val))
		case "tmin":
			d.entry.Min = secsToDuration(d.floatAttr(name, val))
		case "tmax":
			d.entry.Max = secsToDuration(d.floatAttr(name, val))
		case "error_count":
			d.entry.Errors = d.intAttr(name, val)
		case "submit_count":
			d.entry.Submits = d.intAttr(name, val)
		case "submit_stall":
			d.entry.SubmitStall = secsToDuration(d.floatAttr(name, val))
		case "energy":
			d.entry.Energy = joulesToEnergy(d.floatAttr(name, val))
		}
	}
}

// intAttr and floatAttr parse a numeric attribute with the
// allocation-free parsers in scan.go, falling back to strconv (which
// allocates) only on the values those reject: corrupt ones, which warn
// and yield zero, and float shapes outside the exact-representation
// window.
func (d *decoder) intAttr(name, val []byte) int64 {
	if v, ok := parseInt64(val); ok {
		return v
	}
	v, err := strconv.ParseInt(string(val), 10, 64)
	if err != nil {
		d.badAttr(name, val)
		return 0
	}
	return v
}

func (d *decoder) floatAttr(name, val []byte) float64 {
	if v, ok := parseFloat64(val); ok {
		return v
	}
	v, err := strconv.ParseFloat(string(val), 64)
	if err != nil {
		d.badAttr(name, val)
		return 0
	}
	return v
}

// badAttr warns about a corrupt numeric attribute of the element being
// started; a func is named once its name attribute has been seen.
func (d *decoder) badAttr(name, val []byte) {
	where := "ipm_log"
	switch {
	case d.kind == elTask:
		where = "task"
	case d.kind == elFunc && d.entry.Name != nil:
		where = "func " + string(d.entry.Name)
	case d.kind == elFunc:
		where = "func"
	}
	d.rep.warnf("%s: bad %s attribute %q, using 0", where, name, val)
}

// profileSink assembles a JobProfile from decoder events.
type profileSink struct {
	command, start, stop string
	nhosts, ntasks       int
	ranks                []RankProfile

	// label is the last region attribute seen and region its Sig.Region,
	// so the entries of one region share one string.
	label, region string
}

func (p *profileSink) Reset() { *p = profileSink{} }

func (p *profileSink) Header(h *ScanHeader) {
	p.command, p.start, p.stop = string(h.Command), string(h.Start), string(h.Stop)
	p.nhosts, p.ntasks = h.NHosts, h.NTasks
}

func (p *profileSink) TaskStart(t *ScanTask) {
	p.ranks = append(p.ranks, RankProfile{
		Rank: t.Rank, Host: string(t.Host), Wallclock: t.Wallclock,
		LoadFactor: t.LoadFactor, Overflow: t.Overflow, Probes: t.Probes,
		Errors: t.Errors, SubmitStall: t.SubmitStall, MonitorErrors: t.MonitorErrors,
		Energy: t.Energy, Device: string(t.Device),
		Lost: t.Lost, LostAt: t.LostAt, LostReason: string(t.LostReason),
	})
}

func (p *profileSink) Entry(e *ScanEntry) {
	if string(e.Region) != p.label {
		p.label = string(e.Region)
		p.region = regionFromLabel(p.label)
	}
	r := &p.ranks[len(p.ranks)-1]
	r.Entries = append(r.Entries, Entry{
		Sig: Sig{Name: string(e.Name), Bytes: e.Bytes, Region: p.region},
		Stats: Stats{
			Count: e.Count, Total: e.Total, Min: e.Min, Max: e.Max, Errors: e.Errors,
			Submits: e.Submits, SubmitStall: e.SubmitStall, Energy: e.Energy,
		},
	})
}

// TaskEnd applies the task-attribute-wins rule: a task without a
// task-level error_total, submit_stall_total or energy_total (logs
// predating them) gets the sum of its entries.
func (p *profileSink) TaskEnd() {
	r := &p.ranks[len(p.ranks)-1]
	var errs, energy int64
	var stall time.Duration
	for _, e := range r.Entries {
		errs += e.Stats.Errors
		stall += e.Stats.SubmitStall
		energy += e.Stats.Energy
	}
	if r.Errors == 0 {
		r.Errors = errs
	}
	if r.SubmitStall == 0 {
		r.SubmitStall = stall
	}
	if r.Energy == 0 {
		r.Energy = energy
	}
}

func (p *profileSink) profile() *JobProfile {
	jp := NewJobProfile(p.command, p.nhosts, p.ranks)
	jp.Start, jp.Stop = p.start, p.stop
	if p.ntasks > len(p.ranks) {
		jp.ExpectedRanks = p.ntasks
	}
	return jp
}
