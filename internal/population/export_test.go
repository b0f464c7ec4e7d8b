package population

// Size returns the fleet size.
func (p *Population) Size() int { return len(p.users) }

// TotalRunsPerDay sums the usage rates.
func (p *Population) TotalRunsPerDay() int {
	total := 0
	for _, u := range p.users {
		total += u.RunsPerDay
	}
	return total
}
