package obs

// parseSection reads one section's bytes, header line included, through the
// record reader's parser for it.
func parseSection(s Section, blob []byte) (*Record, error) {
	rec := &Record{}
	rec.Raw[s] = blob
	return rec, rec.parse(s)
}

// ParseMemCSV, ParseHeatCSV and ParseHotsetCSV read back the CSV the live
// /mem and /heat endpoints serve, which is one record section each.
func ParseMemCSV(b []byte) ([]MemStep, error) {
	rec, err := parseSection(MemSection, b)
	return rec.Mem, err
}

func ParseHeatCSV(b []byte) ([]HeatPartition, error) {
	rec, err := parseSection(HeatSection, b)
	return rec.Heat, err
}

func ParseHotsetCSV(b []byte) ([]HotVertex, error) {
	rec, err := parseSection(HotsetSection, b)
	return rec.Hot, err
}
