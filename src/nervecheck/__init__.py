"""Exhaustive machine checks for D-posets, inner horns, mapping spaces and nerves."""
