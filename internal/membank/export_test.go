package membank

// PagesResident returns how many distinct pages hold data.
func (s *Store) PagesResident() int { return len(s.pages) }

// Traffic returns total bytes written and read through the store.
func (s *Store) Traffic() (written, read int64) { return s.bytesWritten, s.bytesRead }
