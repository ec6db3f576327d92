"""Lexing and parsing for the supported Solidity subset."""
