"""Tests for the resilience layer (budgets, supervision, faults)."""
