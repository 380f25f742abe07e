"""Small shared utilities: table rendering, seeding, validation helpers."""
