package cache

// Searches returns how many plan searches (Best calls) m has run.
func (m *Manager) Searches() int { return m.searches }

// Hits returns how many queries reused a cache entry.
func (m *Manager) Hits() int { return m.hits }

// Rates returns every entry's rate aged to the current query and its reuse
// count, leaving the entries as they are.
func (m *Manager) Rates() (rates map[int]float64, uses map[int]int) {
	rates, uses = make(map[int]float64), make(map[int]int)
	for id, en := range m.entries {
		rates[id], uses[id] = m.decayed(en), en.uses
	}
	return rates, uses
}
